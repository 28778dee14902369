"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.

Criteria 6 and 8 check the paper's exponential-limit claim against an
independent spectral oracle: a dense `numpy.linalg.eigh` of the hopping
matrix, whose site-0 weights give alpha0(t) = sum w cos(lambda t).

  * criterion 6: chi falls strictly over the Fig. 4 ratio set.  Each chi
    is taken at the first order of a fixed ladder at which `chi_metric`
    raises no truncation warning (order 20 warns from sqrt(6) upward and
    is pure truncation at 2*sqrt(3)), and must match the spectral chi on
    a Gauss-Legendre rule.
  * criterion 8: the numeric inflection matches the first zero of the
    spectral alpha0'' and drifts to zero; its ratio to the quadratic
    estimate tends to j_{1,1}/(2 sqrt(2)) ~ 1.3547, the weak-plug limit
    in which alpha0'' ~ -K0^2 J1(2Kt)/(Kt).
"""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import jn_zeros

from spinwire import (
    ChainSpec,
    SpectralAlpha,
    alpha_closed,
    build_generator,
    build_series,
    chi_metric,
    choose_chain_length,
    enumerate_walks,
    envelope_exponent,
    evaluate_series,
    hypergeometric_coefficient,
    inflection_point,
    recurrence_demo,
    singlet_witness,
    walk_count,
)
from spinwire.cli import main
from spinwire.numerics import bisect_root
from spinwire.propagator import ChebyshevAlpha

TABLE = {
    2: (1, 0, 0, 0, 0, 0),
    4: (1, 1, 0, 0, 0, 0),
    6: (2, 2, 1, 0, 0, 0),
    8: (5, 5, 3, 1, 0, 0),
    10: (14, 14, 9, 4, 1, 0),
    12: (42, 42, 28, 14, 5, 1),
}

FIG4_RATIOS = [
    math.sqrt(2.0), math.sqrt(3.0), 2.0, math.sqrt(5.0),
    math.sqrt(6.0), math.sqrt(7.0), 2.0 * math.sqrt(2.0), 2.0 * math.sqrt(3.0),
]

# Series orders tried, in turn, until chi_metric's truncation warning is silent.
CHI_ORDER_LADDER = (20, 30, 40, 50, 60)

# An N-site chain reproduces the first 2N - 1 moments of the infinite one, so
# its alpha0 is off by about (2 K t)^(2N) / (2N)!, far below 1e-30 for
# K t <= 12 at N = 120.
SPECTRAL_SITES = 120


def spectral_weights(k0: float, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and site-0 weights of the hopping matrix, by dense eigh."""
    lam, vec = np.linalg.eigh(build_generator(ChainSpec(k0, k, SPECTRAL_SITES)))
    return lam, vec[0] ** 2


def spectral_chi(ratio: float, nodes: int = 200) -> float:
    """chi from the spectral alpha0 on a Gauss-Legendre rule over [0, 1]."""
    lam, weights = spectral_weights(ratio, ratio * ratio)  # K/K0^2 = 1
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    alpha = np.cos(np.outer(x, lam)) @ weights
    return float(w @ (alpha - np.exp(-x)) ** 2)


def chi_on_ladder(ratio: float) -> tuple[int, float, list[int]]:
    """chi at the first ladder order without a truncation warning.

    Returns (order, chi, orders that warned before it).
    """
    warned = []
    for order in CHI_ORDER_LADDER:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            chi = chi_metric(ratio, order=order, quad_tol=1e-10)
        if not any("truncation-dominated" in str(w.message) for w in caught):
            return order, chi, warned
        warned.append(order)
    raise AssertionError(
        f"chi_metric still truncation-dominated at order {CHI_ORDER_LADDER[-1]} "
        f"for ratio {ratio}"
    )


def spectral_inflection(k0: float, k: float) -> float:
    """First zero of the rescaled alpha0'' = -sum w lambda^2 cos(lambda tau x)."""
    lam, weights = spectral_weights(k0, k)
    tau = k / k0**2
    curvature = weights * lam**2

    def d2(x):
        return -(np.cos(np.multiply.outer(x, lam * tau)) @ curvature)

    grid = np.linspace(0.0, 3.0, 3001)
    values = d2(grid)
    i = int(np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))[0])
    return brentq(lambda x: float(d2(x)), grid[i], grid[i + 1], xtol=1e-15, rtol=1e-14)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def test_criterion_01_walk_table(capsys):
    assert main(["walks", "--n-max", "12"]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("#") or line.startswith("n,"):
            continue
        n, k, count = (int(x) for x in line.split(","))
        rows[(n, k)] = count
    table_ok = all(
        rows[(n, k)] == expected[k] for n, expected in TABLE.items() for k in range(6)
    )
    formula_ok = all(
        enumerate_walks(n)[k] == walk_count(n, k)
        for n in range(2, 21, 2)
        for k in range(n // 2)
    )
    ok = table_ok and formula_ok
    with capsys.disabled():
        report(1, "walk table exact, enumeration matches formula to n=20", ok)
    assert ok


def test_criterion_02_equal_couplings_closed_form(capsys):
    n = choose_chain_length(1.0, 10.0, 1e-10, k0=1.0)
    times = np.linspace(0.0, 10.0, 1000)
    values = ChebyshevAlpha(ChainSpec(1.0, 1.0, n))(times)
    reference = np.array([alpha_closed(1.0, 1.0, float(t)) for t in times])
    worst = float(np.max(np.abs(values - reference)))
    ok = worst < 1e-9
    with capsys.disabled():
        report(2, "matrix alpha0 vs J1(2Kt)/(Kt) at 1000 points", ok,
               f"max deviation {worst:.2e}, n_sites={n}")
    assert ok, f"max |matrix - closed| = {worst:.3e} at K0=K=1"


def test_criterion_03_sqrt2_ratio_three_way(capsys):
    k0 = math.sqrt(2.0)
    n = choose_chain_length(1.0, 10.0, 1e-10, k0=k0)
    alpha = SpectralAlpha(ChainSpec(k0, 1.0, n))

    long_grid = np.linspace(0.0, 10.0, 1000)
    closed_long = np.array([alpha_closed(k0, 1.0, float(t)) for t in long_grid])
    worst_matrix = float(np.max(np.abs(alpha(long_grid) - closed_long)))

    series = build_series(Fraction(2), Fraction(1), order=20)
    short_grid = np.linspace(0.0, 2.0, 201)
    worst_series = 0.0
    for t in short_grid:
        value, _ = evaluate_series(series, float(t))
        worst_series = max(
            worst_series,
            abs(value - alpha_closed(k0, 1.0, float(t))),
            abs(value - alpha(float(t))),
        )
    ok = worst_matrix < 1e-9 and worst_series < 1e-9
    with capsys.disabled():
        report(3, "J0(2Kt) agreement of matrix and order-20 series", ok,
               f"matrix {worst_matrix:.2e}, series {worst_series:.2e}")
    assert ok, (worst_matrix, worst_series)


def test_criterion_04_hypergeometric_identity(capsys):
    pairs = [(1, 1), (2, 1), (3, 1), (1, 2), (4, 1)]
    ok = all(
        hypergeometric_coefficient(j, Fraction(k0_sq, k_sq), k_sq)
        == build_series(k0_sq, k_sq, j)[j]
        for k0_sq, k_sq in pairs
        for j in range(1, 21)
    )
    with capsys.disabled():
        report(4, "hypergeometric coefficients equal walk sums exactly", ok)
    assert ok


def test_criterion_05_envelope_exponents(capsys):
    times = np.linspace(4.0, 52.0, 12001)
    slopes = {}
    for label, k0, target in (("equal", 1.0, -1.5), ("sqrt2", math.sqrt(2.0), -0.5)):
        n = choose_chain_length(1.0, 52.0, 1e-10, k0=k0)
        values = ChebyshevAlpha(ChainSpec(k0, 1.0, n))(times)
        slopes[label] = envelope_exponent(times, values, 5.0, 50.0)
    ok = abs(slopes["equal"] + 1.5) < 0.05 and abs(slopes["sqrt2"] + 0.5) < 0.05
    with capsys.disabled():
        report(5, "envelope exponents -3/2 and -1/2", ok,
               f"fitted {slopes['equal']:.4f} and {slopes['sqrt2']:.4f}")
    assert ok, slopes


def test_criterion_06_chi_strictly_decreasing(capsys):
    orders, chis, warned = zip(*(chi_on_ladder(r) for r in FIG4_RATIOS))
    references = [spectral_chi(r) for r in FIG4_RATIOS]
    deviation = max(abs(c - ref) / ref for c, ref in zip(chis, references))
    increases = [
        (FIG4_RATIOS[i], FIG4_RATIOS[i + 1], chis[i], chis[i + 1])
        for i in range(len(chis) - 1)
        if chis[i] <= chis[i + 1]
    ]
    # at 2*sqrt(3) the unit interval reaches K t = 12: order 20 must flag it
    order_20_flagged = warned[-1][:1] == [20]
    ok = order_20_flagged and deviation < 1e-6 and not increases
    with capsys.disabled():
        report(6, "chi strictly decreasing, matching the spectral oracle", ok,
               "orders " + "/".join(map(str, orders))
               + f", max rel dev {deviation:.1e}, chi = "
               + ", ".join(f"{c:.3e}" for c in chis))
    assert order_20_flagged, (
        f"order 20 at ratio 2*sqrt(3) raised no truncation warning (warned: {warned[-1]})"
    )
    assert deviation < 1e-6, (
        f"chi off the spectral Gauss-Legendre chi by {deviation:.3e} relative: "
        f"{list(zip(orders, chis, references))}"
    )
    assert not increases, f"chi does not decrease strictly; increasing pairs: {increases}"


def test_criterion_07_exponential_limit(capsys):
    times = np.linspace(0.1, 1.0, 181)
    gammas, deviations = [], []
    for r in (8.0, 16.0, 32.0):
        k0, k = r, r * r
        n = choose_chain_length(k, 1.0, 1e-10, k0=k0)
        values = SpectralAlpha(ChainSpec(k0, k, n))(times)
        gammas.append(-float(np.polyfit(times, np.log(values), 1)[0]))
        deviations.append(float(np.max(np.abs(values - np.exp(-times)))))
    ok = (
        all(0.8 <= g <= 1.2 for g in gammas)
        and deviations[2] < 0.05
        and deviations[0] > deviations[1] > deviations[2]
    )
    with capsys.disabled():
        report(7, "rescaled decay approaches exp(-t) with unit rate", ok,
               f"gamma {gammas[0]:.4f}/{gammas[1]:.4f}/{gammas[2]:.4f}, "
               f"max dev {deviations[0]:.4f}/{deviations[1]:.4f}/{deviations[2]:.4f}")
    assert ok, (gammas, deviations)


def test_criterion_08_inflection_convergence(capsys):
    # weak plug: alpha0'' ~ -K0^2 J1(2Kt)/(Kt), so numeric/truncated tends to
    # j_{1,1}/(2 sqrt(2)) as K/K0 grows
    limit = float(jn_zeros(1, 1)[0]) / (2.0 * math.sqrt(2.0))
    numeric_10, truncated_10 = inflection_point(1.0, 10.0)
    ratio_10 = numeric_10 / truncated_10
    root_10 = spectral_inflection(1.0, 10.0)
    root_dev = abs(numeric_10 - root_10) / root_10
    points = [inflection_point(1.0, r) for r in (4.0, 8.0, 16.0)]
    drift = [numeric for numeric, _ in points]
    gaps = [abs(numeric / truncated - limit) for numeric, truncated in points]
    drops_to_zero = drift[0] > drift[1] > drift[2] > 0.0
    converges = gaps[0] > gaps[1] > gaps[2]
    within_band = 0.9 * limit <= ratio_10 <= 1.1 * limit
    ok = root_dev < 1e-9 and within_band and drops_to_zero and converges
    with capsys.disabled():
        report(8, "inflection at the spectral root, ratio tends to j11/(2 sqrt 2)", ok,
               f"rel dev from spectral root {root_dev:.1e}; "
               f"numeric/truncated at K/K0=10 is {ratio_10:.4f} vs {limit:.4f}; "
               f"|ratio - limit| {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}; "
               f"numeric drifts {drift[0]:.4f} > {drift[1]:.4f} > {drift[2]:.4f}")
    assert root_dev < 1e-9, (
        f"numeric inflection {numeric_10!r} at K/K0=10 is {root_dev:.3e} relative "
        f"off the spectral alpha0'' root {root_10!r}"
    )
    assert within_band, (
        f"numeric/truncated inflection ratio at K/K0=10 is {ratio_10:.4f}, outside "
        f"10% of j_11/(2 sqrt(2)) = {limit:.4f}"
    )
    assert converges, f"|ratio - j_11/(2 sqrt(2))| does not shrink over K/K0=4, 8, 16: {gaps}"
    assert drops_to_zero, f"numeric inflection does not drift to zero: {drift}"


def test_criterion_09_magnetized_environment(capsys):
    k0 = math.sqrt(2.0)
    n = choose_chain_length(1.0, 10.0, 1e-10, k0=k0)
    spec = ChainSpec(k0, 1.0, n)
    alpha = SpectralAlpha(spec)
    times = np.linspace(0.0, 10.0, 201)

    h = build_generator(spec)
    worst = 0.0
    for t in times:
        amplitude = expm(-1j * float(t) * h)[0, 0]
        oracle = (
            amplitude.real**2 + amplitude.imag**2 + (1.0 - abs(amplitude) ** 2) ** 2
        )
        a = alpha(float(t))
        formula = a * a + (1.0 - a * a) ** 2
        worst = max(worst, abs(formula - oracle))

    grid = np.linspace(0.0, 10.0, 801)
    values = alpha(grid)
    repolarized = []
    for i in range(1, len(grid)):
        if values[i - 1] * values[i] < 0:
            t_zero = bisect_root(alpha, grid[i - 1], grid[i], xtol=1e-12)
            a = alpha(t_zero)
            repolarized.append(abs(a * a + (1 - a * a) ** 2 - 1.0))
    worst_repolarization = max(repolarized, default=math.nan)
    ok = worst < 1e-9 and len(repolarized) >= 5 and worst_repolarization < 1e-6
    with capsys.disabled():
        report(9, "magnetized-chain Bloch length matches state-vector oracle", ok,
               f"max dev {worst:.2e}, {len(repolarized)} repolarizations, "
               f"worst off {worst_repolarization:.2e}")
    assert ok, (worst, repolarized)


def test_criterion_10_sudden_death_and_rebirth(capsys):
    # strong symmetric damping: one entangled interval, then death for good
    k0, k = 16.0, 256.0
    spec = ChainSpec(k0, k, choose_chain_length(k, 1.5, 1e-10, k0=k0))
    strong = singlet_witness(spec, spec, np.linspace(0.0, 1.5, 3001))
    strong_fine = singlet_witness(spec, spec, np.linspace(0.0, 1.5, 6001))
    one_interval = (
        len(strong.entangled_intervals) == 1
        and strong.entangled_intervals[0][0] == 0.0
        and strong.death_time is not None
        and not strong.rebirth_times
    )

    # oscillatory regime: entanglement is reborn
    spec_osc = ChainSpec(4.0, 1.0, choose_chain_length(1.0, 8.0, 1e-10, k0=4.0))
    reborn = singlet_witness(spec_osc, spec_osc, np.linspace(0.0, 8.0, 2001))
    reborn_fine = singlet_witness(spec_osc, spec_osc, np.linspace(0.0, 8.0, 4001))

    def stable(a, b):
        if len(a.entangled_intervals) != len(b.entangled_intervals):
            return False
        return all(
            abs(x0 - x1) < 1e-6 and abs(y0 - y1) < 1e-6
            for (x0, y0), (x1, y1) in zip(a.entangled_intervals, b.entangled_intervals)
        )

    ok = (
        one_interval
        and len(reborn.rebirth_times) >= 1
        and stable(strong, strong_fine)
        and stable(reborn, reborn_fine)
    )
    with capsys.disabled():
        report(10, "sudden death without rebirth, rebirth when oscillatory", ok,
               f"death at {strong.death_time}, "
               f"{len(reborn.rebirth_times)} rebirths, crossings grid-stable")
    assert ok


def test_criterion_11_recurrence_demo(capsys):
    times = np.arange(0.0, 500.0 + 1e-9, 1e-3)
    p1, first_1 = recurrence_demo([1.0, math.pi], times, threshold=0.9)
    p2, first_2 = recurrence_demo([1.0, math.pi, math.e], times, threshold=0.9)
    never_full = float(np.max(p1[1:])) < 1.0
    ok = never_full and first_1 is not None and first_2 is not None and first_1 < first_2
    with capsys.disabled():
        report(11, "two frequencies recur sooner, neither rebuilds P=1", ok,
               f"max P1 {np.max(p1[1:]):.12f}, crossings {first_1} vs {first_2}")
    assert ok, (np.max(p1[1:]), first_1, first_2)


def test_criterion_12_deterministic_output(capsys, tmp_path):
    commands = {
        "alpha.csv": ["alpha", "--method", "matrix", "--k0", "1", "--k", "1",
                      "--tmax", "10", "--steps", "1000"],
        "walks.csv": ["walks", "--n-max", "16"],
        "witness.csv": ["witness", "--k0a", "4", "--ka", "1", "--k0b", "4",
                        "--kb", "1", "--tmax", "2", "--steps", "400"],
    }
    ok = True
    for name, argv in commands.items():
        blobs = []
        for run in ("first", "second"):
            path = tmp_path / f"{run}-{name}"
            assert main(argv + ["--out", str(path)]) == 0
            data = path.read_bytes()
            if path.with_suffix(path.suffix + ".json").exists():
                data += path.with_suffix(path.suffix + ".json").read_bytes()
            blobs.append(data)
        ok = ok and blobs[0] == blobs[1]
    with capsys.disabled():
        report(12, "identical invocations give byte-identical files", ok)
    assert ok
