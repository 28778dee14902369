"""Bessel-oracle and closed-form unit tests.

Claims checked here:
    - J0 and J1 are accurate to 1e-12 absolute on [-50, 50], verified
      against an exact-rational ascending series computed in this file
      (no shared code with the implementation's float path)
    - parity is exact and J1 = -J0' holds under finite differences
    - the three special-case closed forms match pinned values, each
      other's zeros, and the matrix propagator
    - alpha_closed picks its form from the coupling ratio, to within
      RATIO_MATCH_TOL on either side of sqrt(2) and 1, gives 1 for a
      decoupled qubit (K0 = 0), and raises for generic ratios and
      negative couplings
    - both Bessel cases decay to zero at long times with envelope
      exponents -1/2 and -3/2; the envelope fit rejects times that are
      not strictly increasing and arrays that are not equal-length 1-d
    - on arrays, J0, J1 and the closed forms equal the scalar loop kept
      here as a reference, bit for bit, across chunk edges and the
      series/Hankel switch, and on a seeded sweep of the series range
      that includes the Bessel zeros, subnormal x and the largest x
      below the switch; the Bessel closed forms hold their values plus
      one block of working memory
    - fsum_columns equals math.fsum on every column, near-ties and
      signed zeros included
    - an infinite argument is a ValueError naming it; a NaN gives NaN
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinwire import (
    ChainSpec,
    SpectralAlpha,
    alpha_closed,
    bessel_j0,
    bessel_j1,
    choose_chain_length,
    envelope_exponent,
)
from spinwire.closed_forms import SERIES_ASYMPTOTIC_SWITCH, SERIES_TERMS, fsum_columns
from spinwire.numerics import CHUNK, bisect_root


def bessel_reference(nu: int, x: float) -> float:
    """Exact-rational ascending series, correct to the last double bit.

    Fraction(x) is the exact binary rational of the float, so every term
    and the running sum are exact; the single rounding happens at the
    final float conversion.  Slow, test-only.
    """
    half = Fraction(x) / 2
    h2 = half * half
    term = Fraction(1) if nu == 0 else half
    total = term
    m = 0
    while True:
        m += 1
        term = -term * h2 / (m * (m + nu))
        total += term
        if m > abs(x) and abs(term) < Fraction(1, 10**30):
            return float(total)


def ascending_terms_reference(nu: int, x: float) -> list[float]:
    # The scalar loop the array route replaced: same terms, same stop.
    half = 0.5 * x
    q = half * half
    term = 1.0 if nu == 0 else half
    terms = [term]
    m = 0
    while abs(term) > 1e-19 or m < 4:
        m += 1
        term *= -q / (m * (m + nu))
        terms.append(term)
        if m > 80:
            break
    return terms


def ascending_series_reference(nu: int, x: float) -> float:
    return math.fsum(ascending_terms_reference(nu, x))


def hankel_reference(nu: int, x: float) -> float:
    # The scalar Hankel amplitude/phase loop the array route replaced.
    mu = 4 * nu * nu
    ratios = []
    a = 1.0
    for m in range(1, 40):
        a *= (mu - (2 * m - 1) ** 2) / (8.0 * m * x)
        ratios.append(a)

    def alternating_sum(terms: list[float]) -> float:
        total, last = 0.0, math.inf
        for i, t in enumerate(terms):
            magnitude = abs(t)
            if magnitude >= last:
                break
            total += -t if i % 2 else t
            last = magnitude
        return total

    p = alternating_sum([1.0] + ratios[1::2])
    q = alternating_sum(ratios[0::2])
    w = x - (2 * nu + 1) * math.pi / 4.0
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(w) - q * math.sin(w))


def bessel_loop_reference(nu: int, x: float) -> float:
    ax = abs(x)
    if ax < SERIES_ASYMPTOTIC_SWITCH:
        value = ascending_series_reference(nu, ax)
    else:
        value = hankel_reference(nu, ax)
    return -value if nu == 1 and x < 0 else value


def alpha_closed_loop_reference(form: str, k0: float, k: float, t: float) -> float:
    if form == "cos":
        return math.cos(k0 * t)
    if form == "j0":
        return bessel_loop_reference(0, 2.0 * k * t)
    y = k * t
    return 1.0 if y == 0.0 else bessel_loop_reference(1, 2.0 * y) / y


def same_bits(values: np.ndarray, expected: list[float]) -> bool:
    return values.dtype == np.float64 and values.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("nu", [0, 1])
def test_series_columns_hold_every_kept_term_below_switch(nu):
    # Every |term| grows with x, so the largest x below the switch keeps the most.
    x = math.nextafter(SERIES_ASYMPTOTIC_SWITCH, 0.0)
    assert len(ascending_terms_reference(nu, x)) <= SERIES_TERMS


@pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("nu,f", [(0, bessel_j0), (1, bessel_j1)])
def test_array_bessel_matches_scalar_loop_bitwise(nu, f, size):
    xs = np.concatenate([np.linspace(-50.0, 50.0, size - 3), [11.999999, 12.0, 12.000001]])
    assert same_bits(f(xs), [bessel_loop_reference(nu, x) for x in xs.tolist()])
    assert f(xs.reshape(1, -1)).shape == (1, size)
    assert type(f(3.5)) is float and f(3.5) == bessel_loop_reference(nu, 3.5)


@pytest.mark.parametrize("k0,k", [(0.9, 0.0), (math.sqrt(2.0) * 0.8, 0.8), (1.3, 1.3)])
def test_array_alpha_closed_matches_scalar_loop_bitwise(k0, k):
    form = "cos" if k == 0 else "j1" if k0 == k else "j0"
    times = np.linspace(0.0, 30.0, CHUNK + 1)
    values = alpha_closed(k0, k, times)
    expected = [alpha_closed_loop_reference(form, k0, k, t) for t in times.tolist()]
    assert same_bits(values, expected)
    assert values[0] == 1.0


@pytest.mark.parametrize("k0,k", [(1.0, 1.0), (math.sqrt(2.0), 1.0)])
def test_alpha_closed_memory_is_its_values_plus_a_block(k0, k, traced_peak):
    # 50 blocks of times: the Bessel term table, its sums and the J1
    # quotient each hold one block, whatever the grid
    times = np.linspace(0.0, 30.0, 50 * CHUNK)
    values, peak = traced_peak(lambda: alpha_closed(k0, k, times))
    assert peak < values.nbytes + 2_500_000


# Zeros of J0 and J1 below the series/Hankel switch, to double precision.
J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281)
J1_ZEROS = (3.8317059702075125, 7.015586669815619, 10.173468135062722)


def series_sweep(seed: int) -> np.ndarray:
    # 2^16 points of [0, 12), sorted so that each block spans a short range
    # and leaves the row loop early: uniform draws, every zero of J0 and J1
    # below 12 with 64 ulps on either side, subnormal x, and the 256
    # floats below 12.
    rng = np.random.default_rng(seed)
    near_zeros = [z + np.arange(-64, 65) * np.spacing(z) for z in J0_ZEROS + J1_ZEROS]
    subnormal = np.ldexp(rng.uniform(0.5, 1.0, 512), rng.integers(-1074, -1021, 512))
    below_switch = SERIES_ASYMPTOTIC_SWITCH - np.arange(1, 257) * np.spacing(8.0)
    special = np.concatenate(near_zeros + [subnormal, below_switch, [0.0, 5e-324]])
    return np.sort(np.concatenate([special, rng.uniform(0.0, SERIES_ASYMPTOTIC_SWITCH, 2**16 - special.size)]))


@pytest.mark.parametrize("nu,f", [(0, bessel_j0), (1, bessel_j1)])
def test_series_sweep_matches_scalar_loop_bitwise(nu, f):
    xs = series_sweep(20260)
    assert xs.size == 2**16 and xs.max() < SERIES_ASYMPTOTIC_SWITCH
    assert same_bits(f(xs), [bessel_loop_reference(nu, x) for x in xs.tolist()])


def column_fsums(table: np.ndarray) -> list[float]:
    return [math.fsum(column) for column in table.T.tolist()]


@pytest.mark.parametrize("column", [
    [1.0, 2.0**-53, 2.0**-106],  # fsum: 1 + 2^-52; the double-double sum alone: 1
    [-(2.0**-51), -(2.0**16), -(2.0**-104), 2.0**-79, 2.0**16],  # c's own rounding decides
    [1.0, -1.0, 2.0**-1074],
    [-0.0],
    [-0.0, -0.0],
    [0.0, -0.0],
    [-0.0, 0.0],
    [5.0, -5.0],
])
def test_fsum_columns_near_ties_and_signed_zeros(column):
    table = np.array(column)[:, None]
    assert same_bits(fsum_columns(table), column_fsums(table))


@settings(max_examples=200, deadline=None)
@given(arrays(
    np.float64,
    st.tuples(st.integers(1, SERIES_TERMS), st.integers(1, 6)),
    elements=st.one_of(
        st.floats(-1e300, 1e300),
        st.builds(lambda sign, k: sign * 2.0**k, st.sampled_from([1.0, -1.0]), st.integers(-1074, 40)),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    ),
))
def test_fsum_columns_equals_math_fsum(table):
    assert same_bits(fsum_columns(table), column_fsums(table))


def test_infinite_argument_is_a_value_error_and_nan_gives_nan():
    for f in (bessel_j0, bessel_j1):
        for x in (math.inf, -math.inf, np.array([1.0, math.inf])):
            with pytest.raises(ValueError, match="finite x"):
                f(x)
        assert math.isnan(f(math.nan))
    # K0*t or 2*K*t is inf: an inf t, or a finite product that overflows
    for k0, k, t, name in ((2.0, 0.0, 1e308, "K0*t"), (1.0, 0.0, math.inf, "K0*t"),
                           (math.sqrt(2.0), 1.0, 1e308, "2*K*t"), (1.0, 1.0, 1e308, "2*K*t")):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=re.escape(f"alpha0 needs a finite {name}")):
            alpha_closed(k0, k, np.array([0.0, t]))
        assert math.isnan(alpha_closed(k0, k, math.nan))


def test_values_at_zero():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j1(0.0) == 0.0
    # the odd flip keeps the sign of J1's +0.0 at -0.0, as a copysign would not
    for x in (-0.0, np.array([-0.0])):
        assert math.copysign(1.0, np.ravel(bessel_j1(x))[0]) == 1.0


def test_pinned_values():
    assert abs(bessel_j1(2.0) - 0.576724807756873) < 1e-12
    assert abs(bessel_j0(2.0) - 0.223890779141236) < 1e-12


def test_first_j0_zero():
    zero = bisect_root(bessel_j0, 2.0, 3.0, xtol=1e-12)
    assert abs(zero - 2.404825557695773) < 1e-10


@pytest.mark.parametrize("nu,f", [(0, bessel_j0), (1, bessel_j1)])
def test_absolute_error_below_contract(nu, f):
    # dense everywhere, denser around the series/asymptotic switch
    grid = np.concatenate([
        np.linspace(0.0, 50.0, 501),
        np.linspace(11.0, 13.0, 101),
        [0.5, 2.404825557695773, 11.999999, 12.0, 12.000001, 49.99],
    ])
    worst = max(abs(f(float(x)) - bessel_reference(nu, float(x))) for x in grid)
    assert worst < 1e-12


def test_parity_exact():
    for x in (0.3, 5.0, 11.99, 12.0, 37.5):
        assert bessel_j0(-x) == bessel_j0(x)
        assert bessel_j1(-x) == -bessel_j1(x)


def test_j1_is_minus_j0_derivative():
    h = 1e-4
    for x in np.arange(0.0, 40.0, 0.37):
        derivative = (bessel_j0(x + h) - bessel_j0(x - h)) / (2 * h)
        assert abs(derivative + bessel_j1(x)) < 1e-6


def test_alpha_closed_picks_the_form_from_the_ratio():
    t = 1.7
    assert alpha_closed(1.0, 0.0, t) == math.cos(t)
    assert alpha_closed(0.0, 0.0, t) == 1.0  # K = 0 is matched first
    assert alpha_closed(0.0, 1.0, t) == 1.0  # a decoupled qubit
    assert np.array_equal(alpha_closed(0.0, 1.0, np.array([0.0, t])), [1.0, 1.0])
    assert alpha_closed(math.sqrt(2.0), 1.0, t) == bessel_j0(2.0 * t)
    assert alpha_closed(1.0, 1.0, t) == bessel_j1(2.0 * t) / t
    y = 0.8 * t
    assert alpha_closed(math.sqrt(2.0) * 0.8, 0.8, t) == bessel_j0(2.0 * y)
    assert alpha_closed(0.8, 0.8, t) == bessel_j1(2.0 * y) / y
    with pytest.raises(ValueError, match="matrix propagator"):
        alpha_closed(2.0, 1.0, t)
    for k0, k in ((-1.0, 1.0), (1.0, -1.0), (-1.0, 0.0)):
        with pytest.raises(ValueError, match="non-negative"):
            alpha_closed(k0, k, t)


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_alpha_closed_ratio_match_tolerance(side):
    # RATIO_MATCH_TOL is 1e-12 of K0: 5e-13 off sqrt(2) or 1 still matches, 2e-12 off does not
    t = 1.7
    for ratio, form in ((math.sqrt(2.0), bessel_j0(2.0 * t)), (1.0, bessel_j1(2.0 * t) / t)):
        assert alpha_closed(ratio * (1.0 + side * 5e-13), 1.0, t) == form
        with pytest.raises(ValueError, match="matrix propagator"):
            alpha_closed(ratio * (1.0 + side * 2e-12), 1.0, t)


def test_alpha_closed_wire_off_revives_periodically():
    assert alpha_closed(1.0, 0.0, math.pi) == pytest.approx(-1.0, abs=1e-12)
    assert alpha_closed(1.0, 0.0, 2 * math.pi) == pytest.approx(1.0, abs=1e-12)


def test_alpha_closed_equal_couplings_removable_singularity():
    assert alpha_closed(1.0, 1.0, 0.0) == 1.0
    assert alpha_closed(1.0, 1.0, 1e-9) == pytest.approx(1.0, abs=1e-12)


def test_alpha_closed_sqrt2_zero_crossing():
    t = 2.404825557695773 / 2.0  # first zero of J0, halved for the 2Kt argument
    assert abs(alpha_closed(math.sqrt(2.0), 1.0, t)) < 1e-10


def test_alpha_closed_rejects_generic():
    with pytest.raises(ValueError, match="matrix propagator"):
        alpha_closed(1.0, 0.7, 1.0)


@pytest.mark.parametrize("k0", [1.0, math.sqrt(2.0)])
def test_closed_forms_match_propagator(k0):
    alpha = SpectralAlpha(ChainSpec(k0, 1.0, choose_chain_length(1.0, 10.0, k0=k0)))
    for t in np.linspace(0.0, 10.0, 101):
        assert abs(alpha_closed(k0, 1.0, float(t)) - alpha(float(t))) < 1e-9


@pytest.mark.parametrize("k0", [1.0, math.sqrt(2.0)])
def test_closed_forms_vanish_at_long_times(k0):
    values = [abs(alpha_closed(k0, 1.0, t)) for t in np.linspace(100.0, 200.0, 2001)]
    assert max(values) < 0.06


def _closed_form_trace(k0: float, t_lo: float, t_hi: float, n: int):
    times = np.linspace(t_lo, t_hi, n)
    return times, alpha_closed(k0, 1.0, times)


def test_envelope_equal_couplings():
    times, values = _closed_form_trace(1.0, 4.0, 52.0, 12001)
    assert envelope_exponent(times, values, 5.0, 50.0) == pytest.approx(-1.5, abs=0.05)


def test_envelope_sqrt2():
    times, values = _closed_form_trace(math.sqrt(2.0), 4.0, 52.0, 12001)
    assert envelope_exponent(times, values, 5.0, 50.0) == pytest.approx(-0.5, abs=0.05)


def test_envelope_synthetic_power_law():
    times = np.linspace(4.0, 52.0, 12001)
    values = np.cos(times) / times**2
    assert envelope_exponent(times, values, 5.0, 50.0) == pytest.approx(-2.0, abs=0.02)


def test_envelope_needs_enough_peaks():
    times, values = _closed_form_trace(1.0, 4.0, 52.0, 12001)
    with pytest.raises(RuntimeError, match="peaks"):
        envelope_exponent(times, values, 5.0, 6.0)


def test_envelope_rejects_unsorted_times_and_mismatched_shapes():
    times, values = _closed_form_trace(1.0, 4.0, 52.0, 12001)
    with pytest.raises(ValueError, match="increasing"):
        envelope_exponent(times[::-1], values[::-1], 5.0, 50.0)
    repeated = times.copy()
    repeated[100] = repeated[99]
    with pytest.raises(ValueError, match="increasing"):
        envelope_exponent(repeated, values, 5.0, 50.0)
    for bad_times, bad_values in (
        (times, values[:-1]),
        (times[:-1], values),
        (times.reshape(-1, 1), values.reshape(-1, 1)),
        (times, values.reshape(-1, 1)),
        (5.0, 0.5),
    ):
        with pytest.raises(ValueError, match="equal-length 1-d"):
            envelope_exponent(bad_times, bad_values, 5.0, 50.0)
