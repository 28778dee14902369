"""Channel and experiment unit tests.

Claims checked here:
    - the reduced channel contracts (ax, ay, a^2 z), stays inside the
      Bloch ball, and composes as a semigroup in alpha, on seeded draws
      and as a hypothesis property over the ball and alpha in [-1, 1]
    - chi decreases over the first seven scan ratios and warns loudly
      once truncation takes over, also when the last series coefficient
      is past the float range; a chi past the float range raises
      OverflowError without squaring P when its last coefficient proves
      the overflow, and also when only the final division overflows
    - chi equals, to 2 ulp, an exact-Fraction evaluation of its closed
      form written here: the x^n e^-x moments as n! - M_n e^-1 and e^-1
      as a partial sum far past double precision
    - chi from the unreduced series pairs has the bits of the closed
      form fed from build_series' reduced Fractions
    - chi, in integer fixed point, has the bits of the closed form in
      Decimal with the O(order^2) double loop for its integral of P^2,
      kept here as the reference, on the Fig. 4 ratios at orders 20-60
      and on drawn ratios from 0.05 to 12 at orders 2-200; the Kronecker
      square gives the schoolbook convolution exactly
    - the inflection point depends only on K/K0, agrees with a
      finite-difference root of the closed form at equal couplings, and
      drifts to zero as the wire dominates; its one-call grid search on
      chi's rescaled series gives the bits of the scalar geometric march
      kept here, on the (K0, K) series times tau^(2j)
    - a negative chi is a ValueError, and so is a series order below 2,
      for chi and the inflection point, checked before any series is built
    - the magnetized-chain Bloch length matches a matrix-exponential
      state-vector oracle built here from the dense generator, has the
      bits of the whole-array formula and holds no more than its trace
      plus one block; on the closed-form evaluator it matches the
      certified Chebyshev one to 1e-9 at K0 = sqrt(2) K and K0 = K
    - the singlet witness starts at 3, dies at the quartic-root
      crossing, and is reborn in the oscillatory regime; equal chains
      share one evaluator, called once per time; all edges are bisected
      together, with the bits of one bisection per edge; it holds no
      more than its trace plus one block, and the spectral evaluators
      give the Chebyshev ones' intervals to 1e-8
    - a Chebyshev evaluator walked by the Bloch trace or the witness
      over many blocks of an ascending grid builds its moments once
    - the recurrence demo never returns to 1 and re-crosses thresholds
      sooner with fewer frequencies; run in CHUNK blocks it has the bits
      of the whole-array formula, sees a crossing on a block join, and
      holds no more than its trace plus one block
"""

from __future__ import annotations

import math
import time
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinwire import (
    BlochVector,
    ChainSpec,
    SpectralAlpha,
    apply_channel,
    build_generator,
    build_series,
    channels,
    chi_metric,
    choose_chain_length,
    inflection_point,
    magnetized_bloch_trace,
    propagator,
    recurrence_demo,
    singlet_witness,
)
from spinwire.closed_forms import alpha_closed
from spinwire.numerics import CHUNK, TREE_DEPTH, bisect_root
from spinwire.propagator import ChebyshevAlpha
from spinwire.series import _series_pairs, horner

# ----------------------------------------------------------------- channel --

def test_channel_pinned_examples():
    assert apply_channel(BlochVector(1, 0, 0), 1.0) == BlochVector(1, 0, 0)
    assert apply_channel(BlochVector(1, 0, 0), 0.0) == BlochVector(0, 0, 0)
    assert apply_channel(BlochVector(0, 0, 1), 0.5) == BlochVector(0, 0, 0.25)


def test_channel_preserves_bloch_ball():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        direction = rng.normal(size=3)
        direction *= rng.uniform() / np.linalg.norm(direction)
        v = BlochVector(*direction)
        alpha = rng.uniform(-1.0, 1.0)
        assert apply_channel(v, alpha).norm_sq <= 1.0 + 1e-12


def test_channel_composes_as_semigroup():
    rng = np.random.default_rng(11)
    for _ in range(200):
        direction = rng.normal(size=3)
        direction *= rng.uniform() / np.linalg.norm(direction)
        v = BlochVector(*direction)
        a1, a2 = rng.uniform(-1.0, 1.0, size=2)
        twice = apply_channel(apply_channel(v, a1), a2)
        once = apply_channel(v, a1 * a2)
        assert twice.vx == pytest.approx(once.vx, abs=1e-15)
        assert twice.vy == pytest.approx(once.vy, abs=1e-15)
        assert twice.vz == pytest.approx(once.vz, abs=1e-15)


bloch_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda c: math.fsum(x * x for x in c) <= 1.0
).map(lambda c: BlochVector(*c))


@settings(max_examples=200, deadline=None)
@given(v=bloch_vectors, a1=st.floats(-1.0, 1.0), a2=st.floats(-1.0, 1.0))
def test_channel_semigroup_property(v, a1, a2):
    twice = apply_channel(apply_channel(v, a1), a2)
    once = apply_channel(v, a1 * a2)
    for got, want in ((twice.vx, once.vx), (twice.vy, once.vy), (twice.vz, once.vz)):
        assert got == pytest.approx(want, abs=1e-15)


def test_bloch_vector_rejects_outside_ball():
    with pytest.raises(ValueError):
        BlochVector(1.0, 1.0, 1.0)


# --------------------------------------------------------------------- chi --

def test_chi_positive_and_finite():
    value = chi_metric(math.sqrt(2.0))
    assert 0.0 < value < 1.0


def test_chi_decreases_while_series_converges():
    # the order-20 window covers ratios up to 2*sqrt(2); the conservative
    # tail estimate already warns for the upper ratios, which is fine here
    ratios = [math.sqrt(r) for r in (2, 3, 4, 5, 6, 7, 8)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        values = [chi_metric(r) for r in ratios]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_chi_warns_when_truncation_dominates():
    # at ratio 2*sqrt(3) the order-20 polynomial no longer represents
    # alpha0 on [0, 1] (K t reaches 12) and chi explodes
    with pytest.warns(RuntimeWarning, match="truncation"):
        blown_up = chi_metric(2.0 * math.sqrt(3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert blown_up > chi_metric(2.0 * math.sqrt(2.0))


def test_chi_warns_when_the_last_coefficient_passes_float_range(monkeypatch):
    # at ratio 20 the order-300 series ends in coefficients past 1e308 and the
    # bound on its tail passes e^700: the warning reports an infinite error
    # instead of failing to convert either
    monkeypatch.setattr(channels, "_chi_closed_form", lambda coeffs: 1e-3)
    with pytest.warns(RuntimeWarning, match="truncation error inf"):
        assert chi_metric(20.0, order=300) == 1e-3


@pytest.mark.parametrize("ratio, order", [(1e100, 20), (1e300, 40)])
def test_chi_past_float_range_raises_before_e_inv(monkeypatch, ratio, order):
    # the last coefficient already proves the overflow, before P is scaled
    # and squared at the digits this chi would need, and before e^-1
    def no_square(values):
        raise AssertionError("squared P for a chi its last coefficient proves past float range")

    monkeypatch.setattr(channels, "_alternating_square", no_square)
    start = time.perf_counter()
    with pytest.raises(OverflowError, match="overflows a float"):
        chi_metric(ratio, order=order)
    assert time.perf_counter() - start < 10.0


def test_negative_chi_raises(monkeypatch):
    # an integral of a square is never negative: a negative closed form is a fault
    monkeypatch.setattr(channels, "_chi_closed_form", lambda coeffs: -1e-3)
    with pytest.raises(ValueError, match="negative"):
        chi_metric(2.0, order=20)


def exact_chi(ratio: float, order: int) -> float:
    """chi = A + B e^-1 + C e^-2 in exact rationals, rounded once to a float.

    With the integer M_n = sum_{i<=n} n!/i!, the integral of x^n e^-x over
    [0, 1] is n! - M_n e^-1.  e^-1 is the partial sum of its series up to
    k = 4 order + 100, whose remainder is far below what B can amplify.
    """
    r = Fraction(ratio)
    c = build_series(r * r, r**4, order)
    p_squared = sum(
        sum(c[i] * c[n - i] for i in range(max(0, n - order), min(n, order) + 1)) / (2 * n + 1)
        for n in range(2 * order + 1)
    )
    a_part, b_part, m_n = p_squared + Fraction(1, 2), Fraction(0), 0
    for n in range(2 * order + 1):
        m_n = n * m_n + 1
        if n % 2 == 0:
            a_part -= 2 * c[n // 2] * math.factorial(n)
            b_part += 2 * c[n // 2] * m_n
    e_inv = sum(Fraction((-1) ** k, math.factorial(k)) for k in range(4 * order + 101))
    return float(a_part + b_part * e_inv - e_inv * e_inv / 2)


@settings(max_examples=25, deadline=None)
@given(ratio=st.floats(1.0, 2.8), order=st.integers(20, 40))
@example(ratio=2.5572967500374952, order=40)  # adaptive Simpson missed this one by 1.3e-8
@example(ratio=2.0 * math.sqrt(3.0), order=20)  # truncation-dominated: A and B e^-1 cancel hard
@example(ratio=2.8, order=40)  # the far corner: the largest coefficients
def test_chi_matches_exact_fractions(ratio, order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        value, want = chi_metric(ratio, order=order), exact_chi(ratio, order)
    assert abs(value - want) <= 2 * math.ulp(want), (value, want)


@settings(max_examples=25, deadline=None)
@given(ratio=st.floats(1.0, 2.8), order=st.integers(20, 40))
@example(ratio=2.8, order=40)
def test_chi_from_pairs_equals_chi_from_reduced_fractions(ratio, order):
    r = Fraction(ratio)
    reduced = [(c.numerator, c.denominator) for c in build_series(r * r, r**4, order)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        value = chi_metric(ratio, order=order)
    assert value.hex() == channels._chi_closed_form(reduced).hex()


def test_chi_rejects_bad_ratio():
    with pytest.raises(ValueError):
        chi_metric(0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            chi_metric(bad)


@pytest.mark.parametrize("order", [-1, 0, 1])
@pytest.mark.parametrize("call", [
    pytest.param(lambda order: chi_metric(1.0, order), id="chi_metric"),
    pytest.param(lambda order: inflection_point(1.0, 1.0, order), id="inflection_point"),
])
def test_chi_rejects_orders_below_two(monkeypatch, call, order):
    # chi's own rule, before a series is built; the inflection point reads chi's series
    def no_build(*args, **kwargs):
        raise AssertionError("built a series for an order chi rejects")

    monkeypatch.setattr(channels, "_series_pairs", no_build)
    with pytest.raises(ValueError, match=f"order >= 2, got {order}"):
        call(order)


def decimal_loop_chi(pairs) -> Decimal:
    """_chi_closed_form in Decimal, with its integral of P^2 as a double loop of products.

    The same scaled coefficients and guard digits; s_n / (2n+1) is
    summed per n from Decimal products of them, each rounded to the
    context, in O(order^2) operations, and e^-1, the moments and the
    cross term are Decimal operations rounded to the same context.
    """
    bound = sum(abs(n) // d + 1 for n, d in pairs)
    digits = math.ceil(math.log10(bound))
    places = channels.CHI_GUARD_DIGITS + 2 * digits
    scale = 10**places
    top = len(pairs) - 1
    with localcontext() as ctx:
        ctx.prec = places + 2 * digits
        c = [Decimal(n * scale // d).scaleb(-places) for n, d in pairs]
        p_squared = Decimal(0)
        for n in range(2 * top + 1):
            products = sum((c[i] * c[n - i] for i in range(max(0, n - top), (n + 1) // 2)),
                           Decimal(0))
            diagonal = c[n // 2] ** 2 if n % 2 == 0 else 0
            p_squared += (2 * products + diagonal) / (2 * n + 1)
        if p_squared > 2**1025:
            return Decimal("Infinity")
        e_inv = Decimal(-1).exp()
        moment, term, k = Decimal(0), Decimal(1), 2 * top
        while moment + term != moment:
            k += 1
            term /= k
            moment += term
        moment *= e_inv
        cross = Decimal(0)
        for n in range(2 * top, -1, -1):
            if n % 2 == 0:
                cross += c[n // 2] * moment
            if n:
                moment = (moment + e_inv) / n
        return p_squared - 2 * cross + (1 - e_inv * e_inv) / 2


def assert_chi_equals_decimal_loop(ratio: float, order: int) -> None:
    r = Fraction(ratio)
    pairs = _series_pairs(r * r, r**4, order)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        value = chi_metric(ratio, order=order)
    assert value.hex() == float(decimal_loop_chi(pairs)).hex(), (ratio, order)


FIG4_RATIOS = [
    math.sqrt(2.0), math.sqrt(3.0), 2.0, math.sqrt(5.0),
    math.sqrt(6.0), math.sqrt(7.0), 2.0 * math.sqrt(2.0), 2.0 * math.sqrt(3.0),
]


@pytest.mark.parametrize("ratio", FIG4_RATIOS)
def test_chi_equals_decimal_loop_on_fig4_ratios(ratio):
    for order in range(20, 61):
        assert_chi_equals_decimal_loop(ratio, order)


@settings(max_examples=40, deadline=None)
@given(ratio=st.floats(1.0, 2.8), order=st.integers(20, 40))
@example(ratio=2.8, order=40)
@example(ratio=1.0, order=20)  # P = Q
def test_chi_equals_decimal_loop_in_the_benchmark_range(ratio, order):
    assert_chi_equals_decimal_loop(ratio, order)


@settings(max_examples=25, deadline=None)
@given(ratio=st.floats(0.05, 12.0), order=st.integers(2, 200))
@example(ratio=12.0, order=200)  # the largest coefficients: chi is truncation-dominated
@example(ratio=12.0, order=2)
@example(ratio=0.05, order=80)  # K < K0: P is nearly 1, far from exp(-x)
def test_chi_equals_decimal_loop_past_the_window(ratio, order):
    assert_chi_equals_decimal_loop(ratio, order)


def test_chi_past_float_range_in_the_final_division(monkeypatch):
    # P = c_0 with c_0^2 between 2^1024 and 2^1025: the early exit does not
    # fire, and the correctly rounded division overflows instead
    pairs = [(math.isqrt(3 << 1023), 1)]
    assert 2**1024 < pairs[0][0] ** 2 < 2**1025
    assert channels._chi_closed_form(pairs) == math.inf
    assert decimal_loop_chi(pairs) > 2**1024
    monkeypatch.setattr(channels, "_series_pairs", lambda *args, **kwargs: pairs)
    with pytest.raises(OverflowError, match="overflows a float"):
        chi_metric(2.0, order=20)


def schoolbook_square(values: list[int]) -> list[int]:
    top = len(values) - 1
    return [sum(values[i] * values[n - i] for i in range(max(0, n - top), min(n, top) + 1))
            for n in range(2 * top + 1)]


def chi_scaled_coefficients(ratio: float, order: int) -> list[int]:
    """The integers floor(n_j 10^p / d_j) that _chi_closed_form squares."""
    r = Fraction(ratio)
    pairs = _series_pairs(r * r, r**4, order)
    digits = math.ceil(math.log10(sum(abs(n) // d + 1 for n, d in pairs)))
    scale = 10 ** (channels.CHI_GUARD_DIGITS + 2 * digits)
    return [n * scale // d for n, d in pairs]


# ratio 2 at order 1079 converges: most of its C_j are 0 (even j) or -1 (odd j)
@pytest.mark.parametrize("ratio,order", [(2.8, 20), (10.0, 288), (2.0, 1079)])
def test_alternating_square_equals_schoolbook_on_chi_coefficients(ratio, order):
    values = chi_scaled_coefficients(ratio, order)
    assert channels._alternating_square(values) == schoolbook_square(values)


@pytest.mark.parametrize("values", [
    # every magnitude at the largest: each s_n at the top of its stride
    pytest.param([(-1) ** j * (2**256 - 1) for j in range(1080)], id="full-1079"),
    # every seventh magnitude 0
    pytest.param([(-1) ** j * (j % 7) * 3 ** (j % 97) for j in range(1080)], id="zeros-1079"),
])
def test_alternating_square_equals_schoolbook(values):
    assert channels._alternating_square(values) == schoolbook_square(values)


@settings(max_examples=60, deadline=None)
@given(magnitudes=st.lists(st.integers(0, 2**300), min_size=1, max_size=40))
def test_alternating_square_equals_schoolbook_on_draws(magnitudes):
    values = [(-1) ** j * m for j, m in enumerate(magnitudes)]
    assert channels._alternating_square(values) == schoolbook_square(values)


# -------------------------------------------------------------- inflection --

def test_truncated_inflection_closed_form():
    _, truncated = inflection_point(1.0, 10.0)
    assert truncated == pytest.approx(math.sqrt(2.0 / (100.0 + 10_000.0)), rel=1e-12)


def test_inflection_depends_only_on_ratio():
    a = inflection_point(1.0, 5.0)
    b = inflection_point(2.0, 10.0)
    assert a[0] == pytest.approx(b[0], rel=1e-10)
    assert a[1] == pytest.approx(b[1], rel=1e-12)
    # exact coefficients beyond float range still scale down to the (1, 1) curve
    c = inflection_point(1.0, 1.0, order=60)
    d = inflection_point(1e4, 1e4, order=60)
    assert d[0] == pytest.approx(c[0], rel=1e-10)
    assert d[1] == pytest.approx(c[1], rel=1e-12)


def test_inflection_matches_closed_form_at_equal_couplings():
    # independent oracle: finite-difference second derivative of
    # J1(2t)/t, root by bisection
    h = 1e-4

    def d2(t: float) -> float:
        return (
            alpha_closed(1.0, 1.0, t + h)
            - 2.0 * alpha_closed(1.0, 1.0, t)
            + alpha_closed(1.0, 1.0, t - h)
        ) / h**2

    oracle = bisect_root(d2, 1.0, 1.3, xtol=1e-10)
    numeric, _ = inflection_point(1.0, 1.0)
    assert numeric == pytest.approx(oracle, abs=1e-5)


def test_inflection_drifts_to_zero():
    numerics = [inflection_point(1.0, r)[0] for r in (4.0, 8.0, 16.0)]
    assert numerics[0] > numerics[1] > numerics[2] > 0.0


def test_inflection_to_truncated_ratio_saturates():
    # the quadratic truncation undershoots by a fixed factor: the true
    # rescaled inflection sits at the first zero of J1(2 K t) while the
    # truncation keeps only the leading curvature, and the ratio of the
    # two tends to 1.3547 as K/K0 grows
    ratios = []
    for r in (4.0, 8.0, 16.0):
        numeric, truncated = inflection_point(1.0, r)
        ratios.append(numeric / truncated)
    assert ratios[0] < ratios[1] < ratios[2] < 1.36
    assert all(1.30 < value for value in ratios)


def _march_first_sign_change(f, start, stop, factor=1.05):
    """The geometric march inflection_point bracketed its root with before
    it evaluated the whole grid at once: (x, x) at a zero, (x, x_next) at
    a sign change, None when there is neither (a zero at stop included)."""
    x, fx = start, f(start)
    while x < stop:
        x_next = min(x * factor, stop)
        f_next = f(x_next)
        if fx == 0.0:
            return x, x
        if (fx > 0) != (f_next > 0):
            return x, x_next
        x, fx = x_next, f_next
        if x == stop:
            break
    return None


def _inflection_by_march(k0: float, k: float, order: int) -> float | None:
    """inflection_point's numeric root, one scalar evaluation per march step."""
    plug, wire = Fraction(k0), Fraction(k)
    tau_sq = wire**2 / plug**4
    coeffs = build_series(plug**2, wire**2, order)
    second = [float(coeffs[j] * tau_sq**j * (2 * j) * (2 * j - 1)) for j in range(1, order + 1)]

    def d2(x):
        return horner(second, x * x)

    bracket = _march_first_sign_change(d2, 1e-6, 3.0)
    if bracket is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        return bisect_root(d2, *bracket, xtol=1e-12)


@settings(max_examples=60, deadline=None)
# K/K0 up to 40: the order-60 coefficients still fit a float
@given(k0=st.floats(0.5, 20.0), k=st.floats(0.05, 20.0), order=st.integers(4, 60))
@example(k0=1.0, k=10.0, order=20)
@example(k0=1.0, k=1.0, order=60)
@example(k0=10.0, k=1.0, order=20)  # no inflection inside the window
@example(k0=1.0, k=70.0, order=60)  # d2 overflows on the grid past the root
@example(k0=1.0, k=0.487, order=20)  # root between the last product and the closing 3.0
def test_inflection_equals_the_scalar_march(k0, k, order):
    expected = _inflection_by_march(k0, k, order)
    if expected is None:
        with pytest.raises(RuntimeError, match="no inflection"):
            inflection_point(k0, k, order)
    else:
        numeric, _ = inflection_point(k0, k, order)
        assert numeric.hex() == expected.hex()


def test_inflection_outside_window_raises():
    with pytest.raises(RuntimeError, match="no inflection"):
        inflection_point(10.0, 1.0)
    with pytest.raises(ValueError):
        inflection_point(0.0, 1.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            inflection_point(bad, 1.0)
        with pytest.raises(ValueError):
            inflection_point(1.0, bad)


# -------------------------------------------------------------- magnetized --

def single_excitation_bloch_sq(spec: ChainSpec, times) -> np.ndarray:
    """State-vector oracle for the magnetized chain.

    Evolves the excitation amplitude vector with a dense matrix
    exponential of the hopping generator, then traces out the chain:
    for initial (|vacuum> + |excitation at 0>)/sqrt(2) the reduced Bloch
    vector is (Re a0, Im a0, 1 - |a0|^2) with a0 the surviving
    site-0 amplitude.
    """
    h = build_generator(spec)
    out = []
    for t in times:
        amplitude = expm(-1j * float(t) * h)[:, 0][0]
        vx, vy = amplitude.real, amplitude.imag
        vz = 1.0 - abs(amplitude) ** 2
        out.append(vx * vx + vy * vy + vz * vz)
    return np.asarray(out)


def test_magnetized_trace_starts_pure():
    spec = ChainSpec(math.sqrt(2.0), 1.0, 40)
    v_sq = magnetized_bloch_trace(ChebyshevAlpha(spec), [0.0])
    assert v_sq[0] == pytest.approx(1.0, abs=1e-12)


def test_magnetized_formula_matches_state_vector_oracle():
    k0 = math.sqrt(2.0)
    spec = ChainSpec(k0, 1.0, choose_chain_length(1.0, 10.0, k0=k0))
    times = np.linspace(0.0, 10.0, 61)
    formula = magnetized_bloch_trace(ChebyshevAlpha(spec), times)
    oracle = single_excitation_bloch_sq(spec, times)
    assert np.max(np.abs(formula - oracle)) < 1e-9


def test_magnetized_repolarizes_at_alpha_zeros():
    k0 = math.sqrt(2.0)
    spec = ChainSpec(k0, 1.0, choose_chain_length(1.0, 10.0, k0=k0))
    alpha = SpectralAlpha(spec)
    grid = np.linspace(0.0, 10.0, 401)
    values = alpha(grid)
    zeros = []
    for i in range(1, len(grid)):
        if values[i - 1] * values[i] < 0:
            zeros.append(bisect_root(alpha, grid[i - 1], grid[i], xtol=1e-12))
    assert len(zeros) >= 5
    for t in zeros:
        v_sq = magnetized_bloch_trace(ChebyshevAlpha(spec), [t])[0]
        assert abs(v_sq - 1.0) < 1e-6


def test_magnetized_minimum_is_three_quarters():
    # v^2 = a^2 + (1 - a^2)^2 is minimal at a^2 = 1/2
    spec = ChainSpec(1.0, 1.0, 120)
    values = magnetized_bloch_trace(ChebyshevAlpha(spec), np.linspace(0.0, 30.0, 3001))
    assert min(values) >= 0.75 - 1e-9
    a_sq = 0.5
    assert a_sq + (1 - a_sq) ** 2 == 0.75


def test_magnetized_memory_is_its_trace_plus_a_block(traced_peak):
    spec = ChainSpec(math.sqrt(2.0), 1.0, 60)
    times = np.linspace(0.0, 20.0, 100001)
    alpha = ChebyshevAlpha(spec)(times)  # warms the order searches' cache too
    v_sq, peak = traced_peak(lambda: magnetized_bloch_trace(ChebyshevAlpha(spec), times))
    assert peak < v_sq.nbytes + 600_000
    a_sq = alpha * alpha
    assert np.array_equal(v_sq, a_sq + (1.0 - a_sq) ** 2)


@pytest.mark.parametrize("t", [1.7, np.float64(1.7), np.array(1.7)], ids=["float", "float64", "0-d"])
def test_magnetized_float_time_gives_the_float_of_the_grid(t):
    spec = ChainSpec(math.sqrt(2.0), 1.0, 60)
    v_sq = magnetized_bloch_trace(ChebyshevAlpha(spec), t)
    assert type(v_sq) is float
    grid = magnetized_bloch_trace(ChebyshevAlpha(spec), np.array([0.3, 1.7, 2.9]))
    assert v_sq.hex() == float(grid[1]).hex()


@pytest.mark.parametrize("k0", [math.sqrt(2.0), 1.0], ids=["sqrt2", "equal"])
def test_magnetized_closed_form_evaluator_matches_the_chebyshev_one(k0):
    times = np.linspace(0.0, 20.0, 2001)
    spec = ChainSpec(k0, 1.0, choose_chain_length(1.0, 20.0, k0=k0))
    closed = magnetized_bloch_trace(partial(alpha_closed, k0, 1.0), times)
    chebyshev = magnetized_bloch_trace(ChebyshevAlpha(spec), times)
    assert np.max(np.abs(closed - chebyshev)) < 1e-9


@pytest.mark.parametrize("walk", ["bloch", "witness"])
def test_chebyshev_moments_are_built_once_over_an_ascending_grid(monkeypatch, walk):
    # the largest times come first, so the first block sizes the moments for all
    builds = []
    real = propagator._signed_moments

    def counting(*args):
        builds.append(args[2])
        return real(*args)

    monkeypatch.setattr(propagator, "_signed_moments", counting)
    alpha = ChebyshevAlpha(ChainSpec(4.0, 1.0, choose_chain_length(1.0, 40.0, k0=4.0)))
    times = np.linspace(0.0, 40.0, 10 * CHUNK + 1)
    if walk == "bloch":
        magnetized_bloch_trace(alpha, times)
    else:
        singlet_witness(alpha, alpha, times)
    assert len(builds) == 1, builds


# ----------------------------------------------------------------- witness --

def test_witness_starts_at_three():
    alpha = ChebyshevAlpha(ChainSpec(1.0, 1.0, 60))
    trace = singlet_witness(alpha, alpha, np.linspace(0.0, 2.0, 101))
    assert trace.witness[0] == pytest.approx(3.0, abs=1e-10)
    assert trace.entangled_intervals[0][0] == 0.0


def test_witness_death_crossing_matches_quartic_root():
    # W = 2 u^2 + u^4 crosses 1 at u = sqrt(sqrt(2) - 1) = 0.6435942529;
    # for identical chains u = alpha0^2
    spec = ChainSpec(1.0, 1.0, 60)
    chebyshev = ChebyshevAlpha(spec)
    trace = singlet_witness(chebyshev, chebyshev, np.linspace(0.0, 2.0, 201))
    death = trace.entangled_intervals[0][1]
    alpha = SpectralAlpha(spec)
    assert alpha(death) ** 2 == pytest.approx(math.sqrt(math.sqrt(2.0) - 1.0), abs=1e-7)


def test_witness_rebirth_in_oscillatory_regime():
    alpha = ChebyshevAlpha(ChainSpec(4.0, 1.0, choose_chain_length(1.0, 8.0, k0=4.0)))
    trace = singlet_witness(alpha, alpha, np.linspace(0.0, 8.0, 2001))
    assert trace.death_time is not None
    assert len(trace.rebirth_times) >= 2
    assert trace.rebirth_times[0] == pytest.approx(0.6602748, abs=1e-4)
    starts = [a for a, _ in trace.entangled_intervals]
    assert starts == sorted(starts)


def test_witness_crossings_stable_under_grid_refinement():
    alpha = ChebyshevAlpha(ChainSpec(4.0, 1.0, choose_chain_length(1.0, 8.0, k0=4.0)))
    coarse = singlet_witness(alpha, alpha, np.linspace(0.0, 8.0, 2001))
    fine = singlet_witness(alpha, alpha, np.linspace(0.0, 8.0, 4001))
    assert len(coarse.entangled_intervals) == len(fine.entangled_intervals)
    for (a0, b0), (a1, b1) in zip(coarse.entangled_intervals, fine.entangled_intervals):
        assert abs(a0 - a1) < 1e-6
        assert abs(b0 - b1) < 1e-6


def test_witness_bounded_by_three():
    alpha_a = ChebyshevAlpha(ChainSpec(2.0, 1.0, 80))
    alpha_b = ChebyshevAlpha(ChainSpec(1.0, 1.0, 80))
    trace = singlet_witness(alpha_a, alpha_b, np.linspace(0.0, 12.0, 1501))
    assert np.max(trace.witness) <= 3.0 + 1e-12
    assert np.min(trace.witness) >= 0.0


@pytest.mark.parametrize("k0b,evaluators", [(4.0, 1), (3.0, 2)])
def test_witness_calls_each_evaluator_once_per_time(monkeypatch, k0b, evaluators):
    # equal chains share one evaluator, called once per time; unequal chains
    # run both; every edge is bisected in the same calls
    calls, evaluations = {}, []
    real_call, real_bisect = ChebyshevAlpha.__call__, channels.bisect_root

    def counting_call(self, t):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return real_call(self, t)

    def counting_bisect(f, lo, hi, **kwargs):
        return real_bisect(lambda t: evaluations.append(t) or f(t), lo, hi, **kwargs)

    monkeypatch.setattr(ChebyshevAlpha, "__call__", counting_call)
    monkeypatch.setattr(channels, "bisect_root", counting_bisect)
    n = choose_chain_length(1.0, 8.0, k0=4.0)
    times = np.linspace(0.0, 8.0, 2001)
    alpha_a = ChebyshevAlpha(ChainSpec(4.0, 1.0, n))
    alpha_b = alpha_a if k0b == 4.0 else ChebyshevAlpha(ChainSpec(k0b, 1.0, n))
    trace = singlet_witness(alpha_a, alpha_b, times)
    assert trace.death_time is not None
    assert len(trace.rebirth_times) >= 2  # several edges
    # one grid call, then one per TREE_DEPTH bisection steps, however many edges there are
    assert list(calls.values()) == [1 + len(evaluations)] * evaluators
    step = times[1] - times[0]
    steps = math.ceil(math.log2(step / channels.CROSSING_XTOL))
    assert 1 + len(evaluations) <= 2 + math.ceil(steps / TREE_DEPTH)


@pytest.mark.parametrize("k0b", [4.0, 3.0], ids=["equal", "distinct"])
def test_witness_memory_is_its_trace_plus_an_alpha_array(traced_peak, k0b):
    # W is built a block at a time, so no more than the trace and one block is
    # held: distinct chains add no grid-sized alphaB array to the equal case's bound
    n = choose_chain_length(1.0, 40.0, k0=4.0)
    spec_a, spec_b = ChainSpec(4.0, 1.0, n), ChainSpec(k0b, 1.0, n)
    times = np.linspace(0.0, 40.0, 200001)
    u = ChebyshevAlpha(spec_a)(times) * ChebyshevAlpha(spec_b)(times)  # warms the order cache
    u_sq = u * u
    expected = 2.0 * u_sq + u_sq * u_sq

    def run():
        alpha_a = ChebyshevAlpha(spec_a)
        alpha_b = alpha_a if spec_b == spec_a else ChebyshevAlpha(spec_b)
        return singlet_witness(alpha_a, alpha_b, times)

    trace, peak = traced_peak(run)
    assert trace.witness.tobytes() == expected.tobytes()
    assert peak < times.nbytes + 600_000


@pytest.mark.parametrize("chains", [((4.0, 1.0), (4.0, 1.0)), ((2.0, 1.0), (1.0, 1.0))],
                         ids=["equal", "distinct"])
def test_witness_spectral_evaluators_match_the_chebyshev_ones(chains):
    tmax = 8.0
    specs = [ChainSpec(k0, k, choose_chain_length(k, tmax, k0=k0)) for k0, k in chains]
    times = np.linspace(0.0, tmax, 2001)
    traces = []
    for route in (ChebyshevAlpha, SpectralAlpha):
        alpha_a = route(specs[0])
        alpha_b = alpha_a if specs[1] == specs[0] else route(specs[1])
        traces.append(singlet_witness(alpha_a, alpha_b, times))
    chebyshev, spectral = traces
    assert len(chebyshev.entangled_intervals) == len(spectral.entangled_intervals) >= 1
    for pair, other in zip(chebyshev.entangled_intervals, spectral.entangled_intervals):
        assert np.max(np.abs(np.subtract(pair, other))) < 1e-8


def _witness_edges_one_by_one(spec_a, spec_b, times):
    """singlet_witness's intervals, death and rebirth times as they were
    found before every edge was bisected at once: one bisection per edge."""
    alpha_a, alpha_b = ChebyshevAlpha(spec_a), ChebyshevAlpha(spec_b)

    def witness_at(t):
        u = alpha_a(t) * alpha_b(t)
        u_sq = u * u
        return 2.0 * u_sq + u_sq * u_sq

    above = witness_at(times) > channels.WITNESS_THRESHOLD
    margin = lambda t: witness_at(t) - channels.WITNESS_THRESHOLD
    intervals = []
    start = times[0] if above[0] else None
    for i in range(1, len(times)):
        if above[i] and start is None:
            start = bisect_root(margin, times[i - 1], times[i], xtol=channels.CROSSING_XTOL)
        elif not above[i] and start is not None:
            end = bisect_root(margin, times[i - 1], times[i], xtol=channels.CROSSING_XTOL)
            intervals.append((start, end))
            start = None
    open_ended = start is not None
    if open_ended:
        intervals.append((start, float(times[-1])))
    death_time = None
    if intervals and not (open_ended and len(intervals) == 1):
        death_time = intervals[0][1]
    return intervals, death_time, [a for a, _ in intervals[1:]]


@settings(max_examples=20, deadline=None)
@given(k0a=st.floats(0.2, 5.0), ka=st.floats(0.2, 2.0), k0b=st.floats(0.2, 5.0),
       kb=st.floats(0.2, 2.0), same=st.booleans(), tmax=st.floats(1.0, 8.0),
       steps=st.integers(2, 600))
def test_witness_edges_match_one_by_one_bisection(k0a, ka, k0b, kb, same, tmax, steps):
    spec_a = ChainSpec(k0a, ka, choose_chain_length(ka, tmax, k0=k0a))
    spec_b = spec_a if same else ChainSpec(k0b, kb, choose_chain_length(kb, tmax, k0=k0b))
    times = np.linspace(0.0, tmax, steps)
    alpha_a = ChebyshevAlpha(spec_a)
    alpha_b = alpha_a if same else ChebyshevAlpha(spec_b)
    trace = singlet_witness(alpha_a, alpha_b, times)
    intervals, death_time, rebirth_times = _witness_edges_one_by_one(spec_a, spec_b, times)

    def bits(values):
        return [float(v).hex() for v in values]

    assert [bits(pair) for pair in trace.entangled_intervals] == [bits(p) for p in intervals]
    assert (trace.death_time is None) == (death_time is None)
    if death_time is not None:
        assert bits([trace.death_time]) == bits([death_time])
    assert bits(trace.rebirth_times) == bits(rebirth_times)


def test_witness_rejects_bad_grid():
    alpha = ChebyshevAlpha(ChainSpec(1.0, 1.0, 40))
    with pytest.raises(ValueError):
        singlet_witness(alpha, alpha, [0.0])
    with pytest.raises(ValueError):
        singlet_witness(alpha, alpha, [0.0, 0.0, 1.0])


# -------------------------------------------------------------- recurrence --

def test_recurrence_starts_at_one_and_never_returns():
    times = np.arange(0.0, 50.0, 1e-3)
    p, _ = recurrence_demo([1.0, math.pi], times)
    assert p[0] == 1.0
    assert np.max(p[1:]) < 1.0


def test_recurrence_two_frequencies_recur_sooner():
    times = np.arange(0.0, 20.0 + 1e-9, 1e-3)
    _, first_two = recurrence_demo([1.0, math.pi], times, threshold=0.9)
    _, first_three = recurrence_demo([1.0, math.pi, math.e], times, threshold=0.9)
    assert first_two == pytest.approx(2.881, abs=2e-3)
    assert first_three == pytest.approx(16.003, abs=2e-3)
    assert first_two < first_three


def test_recurrence_none_when_threshold_unreached():
    times = np.linspace(0.0, 1.0, 101)
    _, first = recurrence_demo([1.0, math.pi], times, threshold=0.999999)
    assert first is None


def test_recurrence_first_exceedance_equals_the_sample_loop():
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 40.0, 4001)
    for threshold in [*rng.uniform(0.3, 0.95, size=12), 0.999999]:
        freqs = rng.uniform(0.5, 4.0, size=rng.integers(2, 5))
        p, first = recurrence_demo(freqs, times, threshold)
        below = p <= threshold
        crossings = (times[i] for i in range(1, len(times)) if below[i - 1] and not below[i])
        assert first == next(crossings, None)


def test_recurrence_blocks_keep_the_whole_array_bits():
    times = np.linspace(0.0, 2.0 * math.pi, 3 * CHUNK + 1)
    freqs = np.array([1.0, math.pi, math.e])
    p, _ = recurrence_demo(freqs, times)
    whole = (freqs.size + np.cos(2.0 * np.outer(times, freqs)).sum(axis=1)) / (2.0 * freqs.size)
    assert np.array_equal(p, whole)
    # P = cos(t)^2 falls until t = pi/2 and climbs after: the first join, at
    # t = 2 pi / 3, is the first crossing of a level between its two samples
    p, _ = recurrence_demo([1.0, 1.0], times)
    assert p[CHUNK - 1] < p[CHUNK]
    threshold = 0.5 * (p[CHUNK - 1] + p[CHUNK])
    assert recurrence_demo([1.0, 1.0], times, threshold)[1] == times[CHUNK]


def test_recurrence_memory_is_its_trace_plus_a_block(traced_peak):
    times = np.linspace(0.0, 500.0, 500001)
    (p, first), peak = traced_peak(lambda: recurrence_demo([1.0, math.pi], times))
    assert first is not None
    assert peak < p.nbytes + 400_000


def test_recurrence_frequency_count_bounds():
    times = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        recurrence_demo([1.0], times)
    with pytest.raises(ValueError):
        recurrence_demo(list(range(1, 10)), times)
