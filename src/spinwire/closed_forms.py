"""Bessel oracles and the analytic special cases of the auto-fidelity.

Three coupling configurations admit closed forms:

    wire off (K = 0)        alpha0(t) = cos(K0 t)
    K0 = sqrt(2) K          alpha0(t) = J0(2 K t)
    K0 = K                  alpha0(t) = J1(2 K t) / (K t)

J0 and J1 are implemented in-repo because they serve as independent
oracles for the series and matrix routes; their accuracy contract
(absolute error below 1e-12 for |x| <= 50) is owned and tested here
rather than assumed from an environment.  Ascending power series below
|x| = 12, Hankel asymptotic amplitude/phase expansion at and above;
both branches meet the contract at the switch point.

The Bessel functions and :func:`alpha_closed` take a float or an array:
a float in gives a float, an array in gives an array of the same shape.
Arrays are evaluated in blocks of ``numerics.CHUNK`` samples with the
same IEEE operations, in the same order, as a lone float, and cos and
sin come from libm (``math``) rather than numpy, so every sample is
bit-identical to its scalar evaluation.

The long-time envelopes of the two Bessel cases decay as t^(-1/2) and
t^(-3/2); :func:`envelope_exponent` measures such exponents from
sampled values by fitting their peak heights on log-log axes.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import chunks, libm

SERIES_ASYMPTOTIC_SWITCH = 12.0
SERIES_TERMS = 32  # terms 0..31: all that any |x| < 12 keeps
RATIO_MATCH_TOL = 1e-12
MIN_PEAKS_FOR_FIT = 4


# ---------------------------------------------------------------------------
# Bessel functions J0, J1
# ---------------------------------------------------------------------------

def _ascending_series(nu: int, x: np.ndarray) -> np.ndarray:
    # For each sample, terms 0 .. SERIES_TERMS-1 of
    # J_nu(x) = sum_m (-1)^m (x/2)^(2m+nu) / (m! (m+nu)!), by the running
    # product term_m = term_(m-1) * (-q / (m (m + nu))); a sample keeps
    # all up to its first below 1e-19 with m >= 4.  Every |term| grows
    # with x, and even x just below 12 stops by m = 31.  The kept terms
    # are fsum-ed, one sample at a time, so the only rounding left is in
    # the terms themselves; zeroing the terms a sample does not keep
    # leaves its fsum unchanged.
    half = 0.5 * x
    q = half * half
    m = np.arange(1, SERIES_TERMS)
    first = (np.ones_like(x) if nu == 0 else half)[:, None]
    terms = np.multiply.accumulate(np.hstack([first, -q[:, None] / (m * (m + nu))]), axis=1)
    carry_on = (np.abs(terms[:, :-1]) > 1e-19) | (m < 5)  # column i: term i, m = i + 1
    keep = np.logical_and.accumulate(np.hstack([np.ones_like(first, bool), carry_on]), axis=1)
    kept = np.where(keep, terms, 0.0)
    return np.fromiter(map(math.fsum, map(np.ndarray.tolist, kept)), float, len(kept))


def _alternating_sum(terms: np.ndarray) -> np.ndarray:
    # 0.0 + t0 - t1 + t2 - ... down the rows, each sample stopping before
    # its first term that is no smaller than the one before (optimal
    # truncation).  A stopped sample adds zeros, which change no partial
    # sum but a zero one, and the closing 0.0 + makes any zero sum +0.0.
    magnitude = np.abs(terms)
    previous = np.vstack([np.full_like(terms[:1], math.inf), magnitude[:-1]])
    live = np.logical_and.accumulate(~(magnitude >= previous), axis=0)
    signed = np.where(live, terms, 0.0)
    signed[1::2] = -signed[1::2]
    return 0.0 + np.add.accumulate(signed, axis=0)[-1]


def _hankel(nu: int, x: np.ndarray) -> np.ndarray:
    # Amplitude/phase form sqrt(2/(pi x)) (P cos w - Q sin w) with
    # w = x - (2 nu + 1) pi / 4.  P collects the even Poincare terms,
    # Q the odd ones; each sum stops at its smallest term (optimal
    # truncation), which is far below 1e-12 for x >= 12.  Row m - 1 of
    # ratios is a_m = a_(m-1) (mu - (2m - 1)^2) / (8 m x), a_0 = 1.
    mu = 4 * nu * nu
    m = np.arange(1, 40)[:, None]
    ratios = np.multiply.accumulate((mu - (2 * m - 1) ** 2) / (8.0 * m * x), axis=0)
    p = _alternating_sum(np.vstack([np.ones_like(x)[None], ratios[1::2]]))
    q = _alternating_sum(ratios[0::2])
    w = x - (2 * nu + 1) * math.pi / 4.0
    return np.sqrt(2.0 / (math.pi * x)) * (p * libm(math.cos, w) - q * libm(math.sin, w))


def _bessel(nu: int, x) -> np.ndarray:
    # J_nu(|x|), one CHUNK of samples at a time, each sample by the
    # ascending series below the switch and by Hankel at or above it.
    ax = np.abs(np.asarray(x, dtype=float))
    flat = ax.ravel()
    values = np.empty_like(flat)
    for block in chunks(flat.size):
        xs, out = flat[block], values[block]
        small = xs < SERIES_ASYMPTOTIC_SWITCH
        for route, where in ((_ascending_series, small), (_hankel, ~small)):
            if where.any():
                out[where] = route(nu, xs[where])
    return values.reshape(ax.shape)


def _like_input(x, values):
    return float(values) if np.ndim(x) == 0 else values


def bessel_j0(x):
    """Bessel J0, absolute error below 1e-12 for |x| <= 50.

    A float in gives a float; an array in gives an array of its shape.
    """
    return _like_input(x, _bessel(0, x))  # J0 is even


def bessel_j1(x):
    """Bessel J1, absolute error below 1e-12 for |x| <= 50.

    A float in gives a float; an array in gives an array of its shape.
    """
    value = _bessel(1, x)
    return _like_input(x, np.where(np.asarray(x) < 0, -value, value))  # J1 is odd


# ---------------------------------------------------------------------------
# Closed-form evaluation at the special coupling ratios
# ---------------------------------------------------------------------------

def alpha_closed(k0: float, k: float, t):
    """Closed-form alpha0 for the solvable coupling ratios.

    The couplings are matched in order: K = 0 gives cos(K0 t), K0 = 0 (a
    decoupled qubit) gives 1, then K0 = sqrt(2) K gives J0(2 K t) and
    K0 = K gives J1(2 K t) / (K t),
    each ratio to within RATIO_MATCH_TOL relative to K0.  A float t gives
    a float; an array gives an array of its shape.  The equal-couplings
    form has a removable singularity at t = 0, where the value is 1.
    Negative couplings and generic ratios, which have no closed form,
    raise ValueError; the matrix propagator handles the latter.
    """
    if k0 < 0 or k < 0:
        raise ValueError("couplings must be non-negative")
    t_arr = np.asarray(t, dtype=float)
    if k == 0:
        values = libm(math.cos, k0 * t_arr)
    elif k0 == 0:
        values = np.ones_like(t_arr)
    elif abs(k0 - math.sqrt(2.0) * k) <= RATIO_MATCH_TOL * k0:
        values = bessel_j0(2.0 * k * t_arr)
    elif abs(k0 - k) <= RATIO_MATCH_TOL * k0:
        y = k * t_arr
        at_zero = y == 0.0
        values = np.where(at_zero, 1.0, bessel_j1(2.0 * y) / np.where(at_zero, 1.0, y))
    else:
        raise ValueError(f"no closed form for k0={k0}, k={k}; use the matrix propagator")
    return _like_input(t, values)


def envelope_exponent(times, values, t_min: float, t_max: float) -> float:
    """Power-law exponent of the oscillation envelope of |alpha0|.

    times and values are equal-length 1-d arrays, times strictly
    increasing; anything else is a ValueError.  Finds the local maxima of
    |values| inside [t_min, t_max], sharpens each with a three-point
    parabolic fit, and least-squares fits log(peak) against log(t).  The
    samples must resolve consecutive extrema (twenty or so per
    oscillation period).  Fewer than MIN_PEAKS_FOR_FIT peaks is a
    RuntimeError.
    """
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("times and values must be equal-length 1-d arrays")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    mask = (times >= t_min) & (times <= t_max)
    times = times[mask]
    magnitudes = np.abs(values[mask])

    peak_times, peak_values = [], []
    for i in range(1, len(times) - 1):
        if magnitudes[i] > magnitudes[i - 1] and magnitudes[i] >= magnitudes[i + 1]:
            t_peak, v_peak = _parabolic_refine(
                times[i - 1 : i + 2], magnitudes[i - 1 : i + 2]
            )
            if v_peak > 0:
                peak_times.append(t_peak)
                peak_values.append(v_peak)

    if len(peak_times) < MIN_PEAKS_FOR_FIT:
        raise RuntimeError(
            f"need at least {MIN_PEAKS_FOR_FIT} envelope peaks in "
            f"[{t_min}, {t_max}], found {len(peak_times)}"
        )
    slope = np.polyfit(np.log(peak_times), np.log(peak_values), 1)[0]
    return float(slope)


def _parabolic_refine(ts, vs) -> tuple[float, float]:
    # Vertex of the parabola through three samples; falls back to the
    # middle sample when the points are degenerate (flat top).
    denominator = (vs[0] - 2 * vs[1] + vs[2])
    if denominator >= 0:
        return float(ts[1]), float(vs[1])
    h = 0.5 * (ts[2] - ts[0])
    shift = 0.5 * (vs[0] - vs[2]) / denominator
    t_peak = ts[1] + shift * h
    v_peak = vs[1] - 0.25 * (vs[0] - vs[2]) * shift
    return float(t_peak), float(v_peak)
