"""Propagator unit tests.

Claims checked here:
    - the generator is the zero-diagonal symmetric tridiagonal matrix
      with off-diagonals (K0, K, K, ...)
    - a two-site chain gives alpha0(t) = cos(K0 t) exactly
    - the spectrum is chiral and the sine part of the propagator entry
      cancels, so alpha0 is real, even, and bounded by 1
    - the spectral alpha0 agrees with the Bessel closed forms, gives
      a float t the bits it has inside a grid, across block joins too,
      and keeps the shape of a 2-d grid
    - the a-priori truncation bound holds on the whole time grid for
      random couplings, against a chain four times longer
    - chain-length selection starts at the light cone, returns the least
      length from there whose bound is below tol (the step-by-one climb
      is the reference), runs no eigensolve, and grows linearly in t_max;
      t_max = 0 and K = 0 give 2 sites; it needs the plug coupling k0,
      and it and the bound raise ValueError for a nan or infinite
      coupling or t_max
    - the Miller order search is the doubling search from order 0, call
      for call
    - the Chebyshev evaluator agrees with the spectral one on random
      chains, returns the same bits for a scalar as for the grid it sits
      in, also across the joins of its CHUNK blocks, and holds no more
      than its values plus one block; its Miller Bessel sums match
      scipy.special.jv; the CLI runs no eigensolve and builds the
      moments once per chain, kept at 8 B per order in one float64 array
    - the Miller loop, which checks for overflow by a growth budget, and
      the moment loop, whose update runs past the support, give the bits
      of the loops kept here as references, which check every order, run
      on the support alone and build temporaries, also past the series
      order, and raise the same error at the same bad moment; long times
      overflow without the rescaling
    - the moments come from one pure function on the sites they reach
      (a 1e8-site chain costs no more than a 51-site one); an evaluator
      replaces its array whole, by exactly the orders the call needs, any
      split of a grid into calls gives the bits of one call on a fresh
      evaluator, and one evaluator shared by threads gives serial bits
"""

from __future__ import annotations

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinwire import (
    ChainSpec,
    ChebyshevAlpha,
    SpectralAlpha,
    bessel_j0,
    bessel_j1,
    build_generator,
    choose_chain_length,
    propagator,
    truncation_bound,
    truncation_gap,
)
from spinwire.cli import main
from spinwire.numerics import CHUNK


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
    spec = ChainSpec(1.0, 1.0, choose_chain_length(1.0, 10.0, k0=1.0))
    values = ChebyshevAlpha(spec)(np.linspace(0.0, 10.0, 401))
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(values)) <= 1.0 + 1e-12


def test_matrix_matches_equal_couplings_closed_form():
    alpha = SpectralAlpha(ChainSpec(1.0, 1.0, choose_chain_length(1.0, 10.0, k0=1.0)))
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
    assert choose_chain_length(1.0, 10.0, 1e-10, k0=1.0) == 70  # ceil(2*1*10) + 50
    # (k0, k, t_max) -> ceil(2 k t_max) + 50: the bound is already below tol there
    for k0, k, t_max, start in ((1, 1, 1, 52), (32, 1024, 1, 2098), (1, 1, 1000, 2050)):
        assert choose_chain_length(k, t_max, 1e-10, k0=k0) == start


def test_choose_chain_length_strong_plug_is_minimal():
    # light-cone start 250; the Dyson tail needs N of about e K t_max
    n = choose_chain_length(1.0, 100.0, 1e-10, k0=16.0)
    assert n == 283
    assert truncation_bound(16.0, 1.0, n, 100.0) < 1e-10
    assert truncation_bound(16.0, 1.0, n - 1, 100.0) >= 1e-10


def _chain_length_by_steps(k0, k, t_max, tol):
    """The certified length by a step-by-one climb from the light-cone start: the reference."""
    n = math.ceil(propagator.LIGHT_CONE_SPEED_FACTOR * k * t_max) + propagator.LIGHT_CONE_BUFFER
    while truncation_bound(k0, k, n, t_max) >= tol:
        n += 1
    return n


@settings(max_examples=200, deadline=None)
@given(k=st.floats(0.01, 20.0), plug=st.one_of(st.floats(0.0, 4.0), st.floats(4.0, 1000.0)),
       t_max=st.floats(1e-3, 60.0), log_tol=st.floats(-15.0, -1.0))
def test_choose_chain_length_is_the_step_by_one_climb(k, plug, t_max, log_tol):
    # strong plugs (K0/K up to 1000) at long times climb above the light-cone start
    k0, tol = plug * k, 10.0**log_tol
    assert choose_chain_length(k, t_max, tol, k0=k0) == _chain_length_by_steps(k0, k, t_max, tol)


def test_choose_chain_length_climbs_past_the_start():
    # K t = 1000: the Dyson tail needs about e K t sites against the start 2 K t + 50
    start = 2050
    n = choose_chain_length(1.0, 1000.0, 1e-12, k0=1000.0)
    assert n > start + 600
    assert n == _chain_length_by_steps(1000.0, 1.0, 1000.0, 1e-12)


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
def test_no_eigensolve_and_moments_once_per_chain(monkeypatch, tmp_path, argv):
    solves, chains = [], []
    real_init = ChebyshevAlpha.__init__

    def counting_init(self, spec):
        chains.append(spec)
        real_init(self, spec)

    monkeypatch.setattr(propagator, "eigh_tridiagonal", lambda *a, **k: solves.append(a))
    monkeypatch.setattr(ChebyshevAlpha, "__init__", counting_init)
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert solves == []
    assert len(chains) == 1  # the witness chains are equal: one set of moments serves both


def _log_uniform_coupling():
    return st.one_of(st.just(0.0), st.floats(-8.0, 2.0).map(lambda e: 10.0**e))


@settings(max_examples=80, deadline=None)
@given(k0=_log_uniform_coupling(), k=_log_uniform_coupling(), n=st.integers(2, 200),
       log_reach=st.floats(-3.0, 2.5))
def test_chebyshev_matches_spectral(k0, k, n, log_reach):
    # a * t_max spans 1e-3 to about 300, so that the series order passes n
    # (the moments then come from a support capped at the chain's end)
    spec = ChainSpec(k0, k, n)
    a = max(k0 + k, 2.0 * k)
    t_max = 10.0**log_reach / a if a > 0 else 1.0
    times = np.linspace(0.0, t_max, 101)
    values = ChebyshevAlpha(spec)(times)
    assert values[0] == 1.0
    # both routes round like a*t*eps: eigenvalue errors of order eps*||h||
    # grow into the phases, Chebyshev recurrence errors grow with the order
    tol = 64.0 * np.finfo(float).eps * (1.0 + a * t_max)
    assert np.max(np.abs(values - SpectralAlpha(spec)(times))) <= tol


@pytest.mark.parametrize("k0, k, n", [(1.0, 1.0, 200), (1.3, 0.7, 37), (5.0, 1.0, 2)])
def test_spectral_scalar_equals_array(k0, k, n):
    # the cosine sums run a CHUNK of times at a time: the grid crosses a join
    times = np.linspace(0.0, 50.0, CHUNK + 1000)
    alpha = SpectralAlpha(ChainSpec(k0, k, n))
    grid = alpha(times)
    assert np.array_equal(grid, [alpha(float(t)) for t in times])
    assert isinstance(alpha(float(times[-1])), float)


def test_spectral_keeps_the_shape_of_a_2d_grid():
    alpha = SpectralAlpha(ChainSpec(1.0, 1.0, 20))
    times = np.linspace(0.0, 5.0, 6)
    values = alpha(times.reshape(2, 3))
    assert values.shape == (2, 3)
    assert values.tobytes() == alpha(times).tobytes()


@settings(max_examples=40, deadline=None)
@given(k0=_log_uniform_coupling(), k=_log_uniform_coupling(), n=st.integers(2, 120),
       log_reach=st.floats(-3.0, 2.3), size=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_chebyshev_scalar_equals_array(k0, k, n, log_reach, size, seed):
    # unsorted times with repeats, zeros and negatives, from one row up
    spec = ChainSpec(k0, k, n)
    a = max(k0 + k, 2.0 * k)
    t_max = 10.0**log_reach / a if a > 0 else 1.0
    rng = np.random.default_rng(seed)
    times = rng.uniform(-t_max, t_max, size)
    times[rng.integers(0, size, size // 4)] = 0.0
    alpha = ChebyshevAlpha(spec)
    grid = alpha(times)
    assert np.array_equal(grid, [alpha(float(t)) for t in times])
    assert np.array_equal(grid.reshape(1, -1), alpha(times.reshape(1, -1)))
    assert isinstance(alpha(float(times[0])), float)


def test_chebyshev_rescales_at_long_times(monkeypatch):
    # past a*t of about 2500 the backward recurrence needs its rescaling;
    # a short chain keeps the reference eigensolve cheap
    spec = ChainSpec(0.7, 1.0, 300)
    times = np.linspace(0.0, 1500.0, 64)
    alpha = ChebyshevAlpha(spec)
    values = alpha(times)
    assert np.all(np.isfinite(values))
    assert np.array_equal(values, [alpha(float(t)) for t in times])
    tol = 64.0 * np.finfo(float).eps * (1.0 + alpha.a * 1500.0)
    assert np.max(np.abs(values - SpectralAlpha(spec)(times))) <= tol
    # the same call overflows when a rescaling leaves the values as they are
    monkeypatch.setattr(propagator, "RESCALE_BY", 1.0)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        ChebyshevAlpha(spec)(times)


def test_chebyshev_edges():
    alpha = ChebyshevAlpha(ChainSpec(1.0, 1.0, 6))
    assert alpha(0.0) == 1.0 and alpha(-0.0) == 1.0
    assert alpha(np.array([])).shape == (0,)
    assert np.array_equal(alpha(np.zeros(3)), np.ones(3))
    assert alpha(-1.5) == alpha(1.5)
    assert alpha(np.ones((2, 3))).shape == (2, 3)
    assert ChebyshevAlpha(ChainSpec(0.0, 0.0, 4))(np.linspace(0.0, 5.0, 50)).tolist() == [1.0] * 50
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            alpha(bad)
        with pytest.raises(ValueError):
            alpha(np.array([0.0, bad]))


def test_chebyshev_moments_are_sane():
    spec = ChainSpec(1.0, 1.0, 50)
    a = ChebyshevAlpha(spec).a
    moments = propagator._signed_moments(spec, a, 41)
    assert moments[0] == 1.0
    assert max(map(abs, moments)) <= 1.0 + propagator.MOMENT_TOL
    # uniform chain: semicircle moments mu_2 = -1/2, then zero until the end is felt
    assert moments[1] == pytest.approx(0.5, abs=1e-15)  # (-1)^1 mu_2
    assert max(map(abs, moments[2:25])) < 1e-14
    with pytest.raises(propagator.EigensolverError, match="n_sites=50"):
        propagator._signed_moments(spec, a / 2, 81)  # a below ||h||: T_m(h/a) blows up


def test_chebyshev_blocks_keep_the_bits_of_scalar_calls():
    # two blocks of ascending times, each with its own top order, then one
    # block shuffled with negatives and zeros; every block runs on its own
    rng = np.random.default_rng(5)
    times = np.r_[np.linspace(0.0, 4.0, 2 * CHUNK),
                  rng.permutation(np.linspace(-4.0, 4.0, CHUNK + 1))]
    times[rng.integers(0, times.size, 200)] = 0.0
    alpha = ChebyshevAlpha(ChainSpec(1.3, 0.7, 60))
    grid = alpha(times)
    joins = (CHUNK * np.arange(1, 4)[:, None] + np.arange(-3, 3)).clip(max=times.size - 1)
    picked = np.r_[joins.ravel(), rng.integers(0, times.size, 300)]
    assert np.array_equal(grid[picked], [alpha(float(t)) for t in times[picked]])


def test_chebyshev_memory_is_its_values_plus_a_block(traced_peak):
    # 50 blocks of times: the sort, the order search and the Miller sums
    # each hold one block, whatever the grid
    alpha = ChebyshevAlpha(ChainSpec(1.3, 0.7, 60))
    times = np.linspace(0.0, 20.0, 50 * CHUNK)
    alpha(times)  # the moments and the order searches' cache, outside the trace
    values, peak = traced_peak(lambda: alpha(times))
    assert peak < values.nbytes + 600_000


def _needed_moments(alpha, t_max):
    return propagator._series_orders(np.array([alpha.a * t_max]))[0] + 1


def test_chebyshev_grows_its_moments_whole():
    # a call past the kept moments replaces them whole, by exactly the orders it needs
    spec = ChainSpec(1.3, 0.7, 60)
    times = np.linspace(0.0, 40.0, 201)
    alpha = ChebyshevAlpha(spec)
    assert alpha.signed_moments.size == 0
    for reach in (times[:10], times):
        values = alpha(reach)
        assert alpha.signed_moments.size == _needed_moments(alpha, reach[-1])
    kept = alpha.signed_moments
    alpha(times[100:])  # within reach: the kept array serves
    assert alpha.signed_moments is kept
    assert np.array_equal(values, ChebyshevAlpha(spec)(times))
    assert np.array_equal(kept, propagator._signed_moments(spec, alpha.a, kept.size))


def test_chebyshev_keeps_exactly_the_orders_a_small_growth_needs():
    # one bucket further needs a few more moments than are kept: the new
    # array holds those, not twice the kept size
    alpha = ChebyshevAlpha(ChainSpec(1.3, 0.7, 60))
    alpha(20.0)
    kept = alpha.signed_moments.size
    needed = _needed_moments(alpha, 21.0)
    assert kept < needed < 2 * kept
    alpha(21.0)
    assert alpha.signed_moments.size == needed


@settings(max_examples=40, deadline=None)
@given(cuts=st.lists(st.integers(0, 301), max_size=6), reach=st.floats(0.5, 80.0),
       shuffle=st.randoms(use_true_random=False))
def test_chebyshev_any_split_of_a_grid_gives_the_bits_of_one_call(cuts, reach, shuffle):
    # the calls grow the moments in whatever order they come; each time's
    # bits stay those of one call on a fresh evaluator
    spec = ChainSpec(1.3, 0.7, 60)
    times = np.linspace(0.0, reach, 301)
    ends = sorted({0, times.size, *cuts})
    parts = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
    shuffle.shuffle(parts)
    alpha, values = ChebyshevAlpha(spec), np.empty_like(times)
    for part in parts:
        values[part] = alpha(times[part])
    assert np.array_equal(values, ChebyshevAlpha(spec)(times))
    assert alpha.signed_moments.size == _needed_moments(alpha, reach)


def test_chebyshev_moments_run_on_the_sites_they_reach():
    # 50 moments need T_m(h/a) e0 for m <= 50, which lives on 51 sites
    spec, short = ChainSpec(0.8, 1.1, 10**8), ChainSpec(0.8, 1.1, 51)
    a = max(spec.k0 + spec.k, 2.0 * spec.k)
    tracemalloc.start()
    try:
        ChebyshevAlpha(spec)
        moments = propagator._signed_moments(spec, a, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert np.array_equal(moments, propagator._signed_moments(short, a, 50))


def test_chebyshev_shared_across_threads():
    # more threads than cores and a short switch interval, so that calls
    # replace the moment array while others read it; an evaluator that
    # extends shared vectors in place fails some of these rounds
    spec = ChainSpec(1.0, 0.6, 300)
    grids = [np.linspace(0.0, reach, 301) for reach in (5.0, 400.0, 0.5, 200.0, 600.0, 50.0) * 4]
    serial = ChebyshevAlpha(spec)
    expected = [serial(grid) for grid in grids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            shared = ChebyshevAlpha(spec)
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(shared, grids, timeout=60))
            assert all(np.array_equal(e, t) for e, t in zip(expected, threaded))
    finally:
        sys.setswitchinterval(interval)


def test_chebyshev_moments_kept_in_a_float64_array():
    # a 2-site chain needs about 1.4 t orders; a list of Python floats kept 32.9 B per order
    alpha = ChebyshevAlpha(ChainSpec(1.0, 1.0, 2))
    alpha(1.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        alpha(2e3)
        first = len(alpha.signed_moments)
        one_call = tracemalloc.get_traced_memory()[0] - before
        alpha(3e3)  # the array is replaced by one of the orders 3e3 needs
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    orders = len(alpha.signed_moments)
    assert first > 2000 and orders > 1.4 * first
    assert alpha.signed_moments.dtype == np.float64
    assert one_call < 10 * first  # 8 B per order, plus the order searches' cache
    assert grown < 10 * orders  # 8 B per order, the first array freed
    assert alpha(3e3) == pytest.approx(math.cos(3e3), abs=1e-12)  # cos(K0 t) on 2 sites


@settings(max_examples=60, deadline=None)
@given(log_x=st.floats(-6.0, math.log10(2048.0)), seed=st.integers(0, 2**32 - 1))
def test_miller_sums_match_scipy_jv(log_x, seed):
    # J0(x) + 2 sum_m c_m J_2m(x) with |c_m| <= 1, as the moments are
    x = 10.0**log_x
    bucket = float(propagator._order_bucket(x))
    assert x <= bucket <= 1.125 * x
    order = propagator._series_order(bucket)
    # the order found at the bucket also drops terms below rounding at x
    tail = propagator._log_tail(x / 2.0, 2 * order + 2, 2)
    assert tail < math.log(propagator.BESSEL_TAIL_TOL / 2.0)
    if order == 0:
        assert 1.0 - scipy.special.jv(0, x) < 2.0**-52
        return
    coefficients = np.random.default_rng(seed).uniform(-1.0, 1.0, order + 1)
    reference = scipy.special.jv(0, x) + 2.0 * np.sum(
        coefficients[1:] * scipy.special.jv(2.0 * np.arange(1, order + 1), x))
    got = _one_row(x, order, coefficients.tolist())
    # scipy's jv is off by up to about 1e-14 per value near x = 1000
    # (checked against mpmath), which its sum over ~x orders accumulates
    assert abs(got - reference) <= 1e-15 * (1.0 + x)
    # a grid at and around x gives each row the bits of its one-row call
    xs = np.sort(x * np.linspace(0.5, 1.0, 40))
    orders = propagator._series_orders(xs)
    keep = orders > 0
    rows = propagator._miller_sums(xs[keep], orders[keep], coefficients.tolist())
    singles = [_one_row(*row, coefficients.tolist())
               for row in zip(xs[keep].tolist(), orders[keep].tolist())]
    assert np.array_equal(rows, singles)


def _series_order_by_doubling(x):
    """The smallest order whose Bessel tail is below rounding, by doubling and
    bisecting from order 0: the reference search."""
    limit = math.log(propagator.BESSEL_TAIL_TOL / 2.0)

    def enough(order):
        return propagator._log_tail(x / 2.0, 2 * order + 2, 2) < limit

    if enough(0):
        return 0
    lo, hi = 0, 1
    while not enough(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


@settings(max_examples=300, deadline=None)
@given(log_x=st.floats(-6.0, 5.0))
def test_series_order_is_the_doubling_search(log_x):
    # the same order from the same _log_tail calls, in the same order
    x = 10.0**log_x
    real_log_tail, starts = propagator._log_tail, {}
    for name, search in (("least", propagator._series_order.__wrapped__),
                         ("doubling", _series_order_by_doubling)):
        seen = starts[name] = []

        def log_tail(y, start, step, seen=seen):
            seen.append(start)
            return real_log_tail(y, start, step)

        with mock.patch.object(propagator, "_log_tail", log_tail):
            seen.append(search(x))
    assert starts["least"] == starts["doubling"]


@pytest.mark.parametrize("x", [0.3, 7.0, 99.5, 1024.0, 2048.0, 5000.0])
def test_miller_sum_jacobi_anger(x):
    # cos x = J0(x) + 2 sum_m (-1)^m J_2m(x): all moments of a 2-site chain with K = 0 are 1.
    # Rounding 2/x moves the argument by up to x*eps/2, hence the tolerance.
    order = propagator._series_order(float(propagator._order_bucket(x)))
    signs = [(-1.0) ** m for m in range(order + 1)]
    tol = 2.0 * np.finfo(float).eps * (1.0 + x)
    assert _one_row(x, order, signs) == pytest.approx(math.cos(x), abs=tol)


def _one_row(x, order, coefficients):
    """The Miller sum at one x, as a one-row call of the array loop."""
    return float(propagator._miller_sums(np.array([x]), np.array([order]), coefficients)[0])


def _miller_sums_checked_every_order(xs, orders, coefficients):
    """The Miller loop that checks every order for values above RESCALE_ABOVE,
    with temporaries: the reference loop."""
    top = int(orders[-1])
    joins = np.searchsorted(orders, np.arange(top + 1))
    inv = 2.0 / xs
    odd, even, weighted, plain, scratch = (np.zeros(xs.size) for _ in range(5))
    joined = xs.size
    for m in range(top, 0, -1):
        lo = joins[m]
        if lo < joined:
            odd[lo:joined] = 1.0
            joined = lo
            o, e, w, p, s, i = (v[lo:] for v in (odd, even, weighted, plain, scratch, inv))
        np.multiply(i, 2 * m + 1, out=s)
        s *= o
        np.subtract(s, e, out=e)
        np.multiply(e, coefficients[m], out=s)
        w += s
        p += e
        np.multiply(i, 2 * m, out=s)
        s *= e
        np.subtract(s, o, out=o)
        np.abs(o, out=s)
        if s.max() > propagator.RESCALE_ABOVE:
            big = s > propagator.RESCALE_ABOVE
            for v in (o, e, w, p):
                v[big] *= propagator.RESCALE_BY
    j0 = inv * odd - even
    return (j0 + 2.0 * weighted) / (j0 + 2.0 * plain)


def _signed_moments_with_temporaries(spec, a, count):
    """The moment recurrence on the support alone, as negation, then two
    added neighbour products: the reference loop."""
    n = min(spec.n_sites, count + 1)
    twice_off = propagator._off_diagonal(ChainSpec(spec.k0, spec.k, n)) * (2.0 / a)
    vec, prev, spare = np.zeros(n), np.zeros(n), np.zeros(n)
    vec[0] = 1.0
    prev[1] = spec.k0 / a
    moments = np.empty(count)
    for m in range(count):
        size = min(m + 1, n)
        head = vec[:size]
        mu = 2.0 * float(head @ head) - 1.0
        if not abs(mu) <= 1.0 + propagator.MOMENT_TOL or (m == 0 and mu != 1.0):
            raise propagator.EigensolverError(f"Chebyshev moment mu_{2 * m} = {mu!r} for {spec}")
        moments[m] = -mu if m % 2 else mu
        grown = min(size + 1, n)
        twice = twice_off[: grown - 1]
        np.negative(prev[:grown], out=spare[:grown])
        spare[1:grown] += twice * vec[: grown - 1]
        spare[: grown - 1] += twice * vec[1:grown]
        vec, prev, spare = spare, vec, prev
    return moments


def _assert_same_miller_bits(xs, orders, seed):
    coefficients = np.random.default_rng(seed).uniform(-1.0, 1.0, int(orders[-1]) + 1)
    got = propagator._miller_sums(xs, orders, coefficients)
    assert got.tobytes() == _miller_sums_checked_every_order(xs, orders, coefficients).tobytes()


@settings(max_examples=40, deadline=None)
@example(ends=(-6.0, 4.0), size=CHUNK, seed=1)
@given(ends=st.tuples(st.floats(-6.0, 4.0), st.floats(-6.0, 4.0)), size=st.integers(1, CHUNK),
       seed=st.integers(0, 2**32 - 1))
def test_miller_sums_are_the_loop_checked_every_order(ends, size, seed):
    # a grid of 1..CHUNK rows at their own series orders, from one to ~7000 orders
    rng = np.random.default_rng(seed)
    xs = np.sort(10.0 ** rng.uniform(min(ends), max(ends), size))
    orders = propagator._series_orders(xs)
    keep = orders > 0
    if keep.any():
        _assert_same_miller_bits(xs[keep], orders[keep], seed)


@settings(max_examples=40, deadline=None)
@example(log_x=-3.0, size=1, extra=2000, seed=0)
@given(log_x=st.floats(-6.0, 0.0), size=st.integers(1, 300), extra=st.integers(0, 3000),
       seed=st.integers(0, 2**32 - 1))
def test_miller_sums_far_past_the_series_order(log_x, size, extra, seed):
    # orders far above the bucket order at small x grow the values by up to
    # ~2**100 per order, so one call rescales many times between its checks
    rng = np.random.default_rng(seed)
    xs = np.sort(10.0**log_x * rng.uniform(0.5, 1.0, size))
    orders = np.maximum.accumulate(propagator._series_orders(xs) + rng.integers(0, extra + 1, size))
    orders[-1] = max(orders[-1], extra, 1)
    _assert_same_miller_bits(xs, orders, seed)


@settings(max_examples=60, deadline=None)
@given(k0=_log_uniform_coupling(), k=_log_uniform_coupling(), n=st.integers(2, 300),
       count=st.integers(1, 400))
def test_signed_moments_are_the_loop_with_temporaries(k0, k, n, count):
    # n both above and below count + 1: the support saturates or it does not
    spec = ChainSpec(k0, k, n)
    a = max(k0 + k, 2.0 * k)
    if a > 0:
        got = propagator._signed_moments(spec, a, count)
        assert got.tobytes() == _signed_moments_with_temporaries(spec, a, count).tobytes()


@settings(max_examples=40, deadline=None)
@given(k0=st.floats(0.1, 10.0), k=st.floats(0.1, 10.0), n=st.integers(2, 60),
       shrink=st.floats(0.3, 0.95))
def test_signed_moments_raise_at_the_first_bad_moment(k0, k, n, shrink):
    # an a below ||h||: the same EigensolverError, at the same moment, as the reference
    spec = ChainSpec(k0, k, n)
    a = shrink * float(np.max(np.abs(np.linalg.eigvalsh(build_generator(spec)))))
    messages = []
    for moments in (propagator._signed_moments, _signed_moments_with_temporaries):
        with pytest.raises(propagator.EigensolverError) as raised:
            moments(spec, a, 400)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def test_choose_chain_length_wire_off():
    assert choose_chain_length(0.0, 10.0, 1e-10, k0=1.0) == 2


def test_choose_chain_length_grows_linearly():
    lengths = [choose_chain_length(1.0, t, 1e-10, k0=1.0) for t in (25.0, 50.0, 100.0)]
    slope = np.polyfit([25.0, 50.0, 100.0], lengths, 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_certified_length_converges_everywhere():
    n = choose_chain_length(1.0, 10.0, 1e-10, k0=1.0)
    base = SpectralAlpha(ChainSpec(1.0, 1.0, n))
    doubled = SpectralAlpha(ChainSpec(1.0, 1.0, 2 * n))
    times = np.linspace(0.0, 10.0, 201)
    assert np.max(np.abs(base(times) - doubled(times))) < 1e-10
    assert truncation_gap(ChainSpec(1.0, 1.0, n), 10.0) < 1e-10


def test_choose_chain_length_rejects_bad_input():
    assert choose_chain_length(1.0, 0.0, k0=1.0) == 2  # nothing to simulate: the minimum
    with pytest.raises(ValueError):
        choose_chain_length(1.0, -1.0, k0=1.0)
    with pytest.raises(ValueError):
        choose_chain_length(1.0, 1.0, tol=0.0, k0=1.0)
    with pytest.raises(ValueError):
        choose_chain_length(1.0, 1.0, tol=2.0, k0=1.0)
    with pytest.raises(ValueError):
        choose_chain_length(-1.0, 1.0, k0=1.0)
    with pytest.raises(TypeError, match="k0"):  # the plug coupling has no default
        choose_chain_length(1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_couplings_and_times_raise(bad):
    # truncation_bound first: a nan there once made choose_chain_length grow n forever
    for k0, k, t_max in ((bad, 1.0, 10.0), (1.0, bad, 10.0), (1.0, 1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            truncation_bound(k0, k, 100, t_max)
    for k0, k, t_max in ((bad, 1.0, 10.0), (1.0, bad, 10.0), (1.0, 1.0, bad), (bad, 0.0, 10.0)):
        with pytest.raises(ValueError, match="finite"):
            choose_chain_length(k, t_max, k0=k0)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        ChainSpec(-1.0, 1.0, 4)
    with pytest.raises(ValueError):
        ChainSpec(1.0, math.inf, 4)

