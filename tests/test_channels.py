"""Channel and experiment unit tests.

Claims checked here:
    - the reduced channel contracts (ax, ay, a^2 z), stays inside the
      Bloch ball, and composes as a semigroup in alpha
    - chi decreases over the first seven scan ratios and warns loudly
      once truncation takes over
    - the inflection point depends only on K/K0, agrees with a
      finite-difference root of the closed form at equal couplings, and
      drifts to zero as the wire dominates
    - the magnetized-chain Bloch length matches a matrix-exponential
      state-vector oracle built here from the dense generator
    - the singlet witness starts at 3, dies at the quartic-root
      crossing, and is reborn in the oscillatory regime
    - the recurrence demo never returns to 1 and re-crosses thresholds
      sooner with fewer frequencies
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from spinwire import (
    BlochVector,
    ChainSpec,
    SpectralAlpha,
    apply_channel,
    build_generator,
    chi_metric,
    chi_scan,
    choose_chain_length,
    inflection_point,
    magnetized_bloch_trace,
    recurrence_demo,
    singlet_witness,
)
from spinwire.closed_forms import alpha_closed, classify_couplings
from spinwire.numerics import bisect_root

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


def test_chi_scan_bundles_results():
    scan = chi_scan([math.sqrt(2.0), 2.0], order=20, quad_tol=1e-9)
    assert scan.series_order == 20
    assert scan.chi[0] > scan.chi[1] > 0
    assert scan.ratios == (math.sqrt(2.0), 2.0)


def test_chi_rejects_bad_ratio():
    with pytest.raises(ValueError):
        chi_metric(0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            chi_metric(bad)


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
    case = classify_couplings(1.0, 1.0)
    h = 1e-4

    def d2(t: float) -> float:
        return (
            alpha_closed(case, t + h)
            - 2.0 * alpha_closed(case, t)
            + alpha_closed(case, t - h)
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
    _, v_sq = magnetized_bloch_trace(spec, [0.0])
    assert v_sq[0] == pytest.approx(1.0, abs=1e-12)


def test_magnetized_formula_matches_state_vector_oracle():
    k0 = math.sqrt(2.0)
    spec = ChainSpec(k0, 1.0, choose_chain_length(1.0, 10.0, k0=k0))
    times = np.linspace(0.0, 10.0, 61)
    _, formula = magnetized_bloch_trace(spec, times)
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
        v_sq = magnetized_bloch_trace(spec, [t])[1][0]
        assert abs(v_sq - 1.0) < 1e-6


def test_magnetized_minimum_is_three_quarters():
    # v^2 = a^2 + (1 - a^2)^2 is minimal at a^2 = 1/2
    spec = ChainSpec(1.0, 1.0, 120)
    _, values = magnetized_bloch_trace(spec, np.linspace(0.0, 30.0, 3001))
    assert min(values) >= 0.75 - 1e-9
    a_sq = 0.5
    assert a_sq + (1 - a_sq) ** 2 == 0.75


# ----------------------------------------------------------------- witness --

def test_witness_starts_at_three():
    spec = ChainSpec(1.0, 1.0, 60)
    trace = singlet_witness(spec, spec, np.linspace(0.0, 2.0, 101))
    assert trace.witness[0] == pytest.approx(3.0, abs=1e-10)
    assert trace.entangled_intervals[0][0] == 0.0


def test_witness_death_crossing_matches_quartic_root():
    # W = 2 u^2 + u^4 crosses 1 at u = sqrt(sqrt(2) - 1) = 0.6435942529;
    # for identical chains u = alpha0^2
    spec = ChainSpec(1.0, 1.0, 60)
    trace = singlet_witness(spec, spec, np.linspace(0.0, 2.0, 201))
    death = trace.entangled_intervals[0][1]
    alpha = SpectralAlpha(spec)
    assert alpha(death) ** 2 == pytest.approx(math.sqrt(math.sqrt(2.0) - 1.0), abs=1e-7)


def test_witness_rebirth_in_oscillatory_regime():
    spec = ChainSpec(4.0, 1.0, choose_chain_length(1.0, 8.0, k0=4.0))
    trace = singlet_witness(spec, spec, np.linspace(0.0, 8.0, 2001))
    assert trace.death_time is not None
    assert len(trace.rebirth_times) >= 2
    assert trace.rebirth_times[0] == pytest.approx(0.6602748, abs=1e-4)
    starts = [a for a, _ in trace.entangled_intervals]
    assert starts == sorted(starts)


def test_witness_crossings_stable_under_grid_refinement():
    spec = ChainSpec(4.0, 1.0, choose_chain_length(1.0, 8.0, k0=4.0))
    coarse = singlet_witness(spec, spec, np.linspace(0.0, 8.0, 2001))
    fine = singlet_witness(spec, spec, np.linspace(0.0, 8.0, 4001))
    assert len(coarse.entangled_intervals) == len(fine.entangled_intervals)
    for (a0, b0), (a1, b1) in zip(coarse.entangled_intervals, fine.entangled_intervals):
        assert abs(a0 - a1) < 1e-6
        assert abs(b0 - b1) < 1e-6


def test_witness_bounded_by_three():
    spec_a = ChainSpec(2.0, 1.0, 80)
    spec_b = ChainSpec(1.0, 1.0, 80)
    trace = singlet_witness(spec_a, spec_b, np.linspace(0.0, 12.0, 1501))
    assert np.max(trace.witness) <= 3.0 + 1e-12
    assert np.min(trace.witness) >= 0.0


def test_witness_rejects_bad_grid():
    spec = ChainSpec(1.0, 1.0, 40)
    with pytest.raises(ValueError):
        singlet_witness(spec, spec, [0.0])
    with pytest.raises(ValueError):
        singlet_witness(spec, spec, [0.0, 0.0, 1.0])


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


def test_recurrence_frequency_count_bounds():
    times = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        recurrence_demo([1.0], times)
    with pytest.raises(ValueError):
        recurrence_demo(list(range(1, 10)), times)
