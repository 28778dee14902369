"""Propagator unit tests.

Claims checked here:
    - the generator is the zero-diagonal symmetric tridiagonal matrix
      with off-diagonals (K0, K, K, ...)
    - a two-site chain gives alpha0(t) = cos(K0 t) exactly
    - the spectrum is chiral and the sine part of the propagator entry
      cancels, so alpha0 is real, even, and bounded by 1
    - the spectral alpha0 agrees with the Bessel closed forms
    - the a-priori truncation bound holds on the whole time grid for
      random couplings, against a chain four times longer
    - chain-length selection starts at the light cone, grows only while
      the bound exceeds tol, runs no eigensolve, and grows linearly in
      t_max
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwire import (
    AlphaTrace,
    ChainSpec,
    SpectralAlpha,
    alpha_trace,
    bessel_j0,
    bessel_j1,
    build_generator,
    choose_chain_length,
    propagator,
    truncation_bound,
    truncation_gap,
)
from spinwire.cli import main


def test_generator_structure():
    spec = ChainSpec(k0=0.7, k=1.3, n_sites=6)
    h = build_generator(spec)
    assert h.shape == (6, 6)
    assert np.array_equal(h, h.T)
    assert np.all(np.diag(h) == 0.0)
    assert h[0, 1] == 0.7
    assert np.all(h[np.arange(1, 5), np.arange(2, 6)] == 1.3)
    assert np.count_nonzero(h) == 10


def test_two_site_chain_is_cosine():
    alpha = SpectralAlpha(ChainSpec(k0=1.0, k=0.0, n_sites=2))
    for t in np.linspace(0.0, 7.0, 29):
        assert alpha(float(t)) == pytest.approx(math.cos(t), abs=1e-12)


def test_three_site_eigenvalues():
    # characteristic polynomial of the 3-site equal-coupling chain:
    # lambda (lambda^2 - 2) = 0
    alpha = SpectralAlpha(ChainSpec(k0=1.0, k=1.0, n_sites=3))
    assert alpha.eigenvalues == pytest.approx(
        [-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-12
    )


@pytest.mark.parametrize("spec", [
    ChainSpec(1.0, 1.0, 41),
    ChainSpec(math.sqrt(2), 1.0, 41),
    ChainSpec(0.3, 2.0, 64),
])
def test_weights_normalized_and_spectrum_chiral(spec):
    alpha = SpectralAlpha(spec)
    assert abs(alpha.weights.sum() - 1.0) < 1e-12
    lam = np.sort(alpha.eigenvalues)
    assert np.max(np.abs(lam + lam[::-1])) < 1e-10
    # odd part of the propagator entry cancels: alpha0 is even in time
    for t in np.linspace(0.0, 8.0, 17):
        assert abs(float(alpha.weights @ np.sin(alpha.eigenvalues * t))) < 1e-10
        assert alpha(float(t)) == pytest.approx(alpha(float(-t)), abs=1e-12)


def test_trace_normalization_and_bounds():
    spec = ChainSpec(1.0, 1.0, choose_chain_length(1.0, 10.0))
    trace = alpha_trace(spec, np.linspace(0.0, 10.0, 401))
    assert trace.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(trace.values)) <= 1.0 + 1e-12
    assert trace.method == "matrix"


def test_matrix_matches_equal_couplings_closed_form():
    alpha = SpectralAlpha(ChainSpec(1.0, 1.0, choose_chain_length(1.0, 10.0)))
    for t in np.linspace(1e-3, 10.0, 97):
        expected = bessel_j1(2.0 * t) / t
        assert abs(alpha(float(t)) - expected) < 1e-9


def test_matrix_matches_sqrt2_closed_form():
    k0 = math.sqrt(2.0)
    alpha = SpectralAlpha(ChainSpec(k0, 1.0, choose_chain_length(1.0, 10.0, k0=k0)))
    assert abs(alpha(1.0) - bessel_j0(2.0)) < 1e-9
    for t in np.linspace(0.0, 10.0, 97):
        assert abs(alpha(float(t)) - bessel_j0(2.0 * t)) < 1e-9


def test_choose_chain_length_light_cone_start():
    assert choose_chain_length(1.0, 10.0, 1e-10) == 70  # ceil(2*1*10) + 50
    # (k0, k, t_max) -> ceil(2 k t_max) + 50: the bound is already below tol there
    for k0, k, t_max, start in ((1, 1, 1, 52), (32, 1024, 1, 2098), (1, 1, 1000, 2050)):
        assert choose_chain_length(k, t_max, 1e-10, k0=k0) == start


def test_choose_chain_length_strong_plug_is_minimal():
    # light-cone start 250; the Dyson tail needs N of about e K t_max
    n = choose_chain_length(1.0, 100.0, 1e-10, k0=16.0)
    assert n == 283
    assert truncation_bound(16.0, 1.0, n, 100.0) < 1e-10
    assert truncation_bound(16.0, 1.0, n - 1, 100.0) >= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    k0=st.floats(0.05, 20.0),
    k=st.floats(0.05, 20.0),
    reach=st.floats(0.05, 1.5),
    n=st.integers(2, 60),
)
def test_truncation_bound_holds_on_the_grid(k0, k, reach, n):
    # t_max in units of the time the fastest coupling needs to cross n sites,
    # so that many draws land where the bound lies between 0 and 2
    t_max = reach * n / max(k0, k)
    times = np.linspace(0.0, t_max, 201)
    gap = np.abs(SpectralAlpha(ChainSpec(k0, k, n))(times)
                 - SpectralAlpha(ChainSpec(k0, k, 4 * n))(times))
    # the 4N-site reference is itself within bound(4N) of the infinite chain;
    # 1e-12 covers eigensolve rounding, which the bound excludes
    allowed = truncation_bound(k0, k, n, t_max) + truncation_bound(k0, k, 4 * n, t_max)
    assert np.max(gap) <= allowed + 1e-12


@pytest.mark.parametrize("k0,k,n,t_max", [
    (1.0, 1.0, 10, 3.0), (1.0, 1.0, 30, 10.0), (16.0, 1.0, 20, 2.0), (0.5, 2.0, 12, 2.0),
])
def test_truncation_bound_matches_exact_tails(k0, k, n, t_max):
    # the two tails of the docstring, summed far out in exact rationals
    x = Fraction(max(k0 + k, 2 * k)) * Fraction(t_max) / 2
    y = 2 * Fraction(k) * Fraction(t_max)
    chebyshev = 4 * sum(x ** (2 * j) / math.factorial(2 * j) for j in range(n, n + 150))
    dyson = 2 * sum(y**m / math.factorial(m) for m in range(2 * n - 2, 2 * n + 300))
    exact = float(min(chebyshev, dyson))
    assert truncation_bound(k0, k, n, t_max) == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_truncation_bound_edges():
    assert truncation_bound(1.0, 1.0, 2, 0.0) == 0.0
    assert truncation_bound(3.0, 0.0, 2, 5.0) == 0.0  # the dimer is the whole chain
    assert truncation_bound(1.0, 1.0, 2, 1e6) == math.inf  # beyond float range, no overflow
    # each tail grows with t_max and shrinks with N
    assert truncation_bound(1.0, 1.0, 30, 5.0) < truncation_bound(1.0, 1.0, 30, 6.0)
    assert truncation_bound(1.0, 1.0, 31, 5.0) < truncation_bound(1.0, 1.0, 30, 5.0)
    with pytest.raises(ValueError):
        truncation_bound(1.0, 1.0, 1, 5.0)
    with pytest.raises(ValueError):
        truncation_bound(1.0, -1.0, 4, 5.0)


@pytest.mark.parametrize("argv", [
    ["alpha", "--method", "matrix", "--k0", "32", "--k", "1024", "--tmax", "1", "--steps", "11"],
    ["witness", "--k0a", "4", "--ka", "1", "--k0b", "4", "--kb", "1", "--tmax", "2",
     "--steps", "50"],
])
def test_one_eigensolve_per_chain(monkeypatch, tmp_path, argv):
    calls = []
    real = propagator.eigh_tridiagonal

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(propagator, "eigh_tridiagonal", counting)
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == 1


def test_choose_chain_length_wire_off():
    assert choose_chain_length(0.0, 10.0, 1e-10) == 2


def test_choose_chain_length_grows_linearly():
    lengths = [choose_chain_length(1.0, t, 1e-10) for t in (25.0, 50.0, 100.0)]
    slope = np.polyfit([25.0, 50.0, 100.0], lengths, 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_certified_length_converges_everywhere():
    n = choose_chain_length(1.0, 10.0, 1e-10)
    base = SpectralAlpha(ChainSpec(1.0, 1.0, n))
    doubled = SpectralAlpha(ChainSpec(1.0, 1.0, 2 * n))
    times = np.linspace(0.0, 10.0, 201)
    assert np.max(np.abs(base(times) - doubled(times))) < 1e-10
    assert truncation_gap(ChainSpec(1.0, 1.0, n), 10.0) < 1e-10


def test_choose_chain_length_rejects_bad_input():
    with pytest.raises(ValueError):
        choose_chain_length(1.0, 0.0)
    with pytest.raises(ValueError):
        choose_chain_length(1.0, 1.0, tol=2.0)
    with pytest.raises(ValueError):
        choose_chain_length(-1.0, 1.0)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        ChainSpec(-1.0, 1.0, 4)
    with pytest.raises(ValueError):
        ChainSpec(1.0, math.inf, 4)


def test_alpha_trace_validation():
    with pytest.raises(ValueError):
        alpha_trace(ChainSpec(1.0, 1.0, 4), [-1.0, 0.0])
    with pytest.raises(ValueError):
        AlphaTrace(np.array([0.0, 1.0]), np.array([1.0, 1.5]), "matrix", 0.0)
    with pytest.raises(ValueError):
        AlphaTrace(np.array([0.0, 1.0]), np.array([0.2, 0.1]), "matrix", 0.0)
    with pytest.raises(ValueError):
        AlphaTrace(np.array([1.0, 0.5]), np.array([0.2, 0.1]), "matrix", 0.0)
    with pytest.raises(ValueError):
        AlphaTrace(np.array([0.0, 1.0]), np.array([1.0, 0.1]), "magic", 0.0)
