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

The Bessel functions and :func:`alpha_closed` take a float or an array
and walk it with :func:`spinwire.numerics.blockwise`, a row of terms at a
time in each block.  Every sample gets the bits of a lone scalar evaluation:
the Hankel sums and every series term come from the same IEEE operations
in the same order, cos and sin come from libm (``math``) rather than
numpy, and the series is summed to the correctly rounded value
``math.fsum`` gives, by a compensated sum that calls fsum only on the
samples it cannot certify (:func:`fsum_columns`).  An infinite argument
is a ValueError; a NaN gives NaN.

The long-time envelopes of the two Bessel cases decay as t^(-1/2) and
t^(-3/2); :func:`envelope_exponent` measures such exponents from
sampled values by fitting their peak heights on log-log axes.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import blockwise, libm, two_sum

SERIES_ASYMPTOTIC_SWITCH = 12.0
SERIES_TERMS = 32  # terms 0..31: all that any |x| < 12 keeps
RATIO_MATCH_TOL = 1e-12
MIN_PEAKS_FOR_FIT = 4


# ---------------------------------------------------------------------------
# Bessel functions J0, J1
# ---------------------------------------------------------------------------

def fsum_columns(terms: np.ndarray) -> np.ndarray:
    """math.fsum of each column of a 2-d float table, bit for bit.

    Sum2 of Ogita, Rump and Oishi (SIAM J. Sci. Comput. 26, 2005): TwoSum
    down each column into a sum s, its errors e_i into c and |e_i| into
    sum|e_i|, then r + d = s + c exactly.  c misses the exact sum of the
    e_i by under (rows - 2) u sum|e_i| (u = 2^-53), so r is the correctly
    rounded column sum, fsum's, wherever |d| + 2 rows u sum|e_i| is
    strictly below half the gap from |r| down to its neighbour.  Other
    columns, a zero or NaN r among them, are fsum-ed as they stand.
    """
    s, c, spread = terms[0].copy(), np.zeros_like(terms[0]), np.zeros_like(terms[0])
    for row in terms[1:]:
        s, e = two_sum(s, row)
        c += e
        spread += np.abs(e)
    r, d = two_sum(s, c)
    size = np.abs(r)
    bound = np.abs(d) + len(terms) * 2.0**-52 * spread
    for j in np.flatnonzero(~(bound < 0.5 * (size - np.nextafter(size, 0.0)))):
        r[j] = math.fsum(terms[:, j].tolist())
    return r


def _ascending_series(nu: int, x: np.ndarray) -> np.ndarray:
    # Row m holds term m of J_nu(x) = sum_m (-1)^m (x/2)^(2m+nu) / (m! (m+nu)!)
    # for every sample, by the running product
    # term_m = term_(m-1) * (-q / (m (m + nu))); a sample keeps all terms
    # up to its first below 1e-19 with m >= 4, and zeros after it, which
    # leave its fsum unchanged.  A term not kept is 0, so from m = 5 on
    # |term_(m-1)| > 1e-19 alone says whether term m is kept.  Every |term|
    # grows with x, and even x just below 12 stops by m = 31; the rows end
    # once no sample keeps one.  fsum_columns then gives each sample the
    # fsum of its kept terms, so the only rounding left is in the terms
    # themselves.
    half = 0.5 * x
    minus_q = -(half * half)
    terms = np.zeros((SERIES_TERMS, x.size))
    terms[0] = 1.0 if nu == 0 else half
    for m in range(1, SERIES_TERMS):
        keep = True if m < 5 else np.abs(terms[m - 1]) > 1e-19
        if m >= 5 and not keep.any():
            return fsum_columns(terms[:m])
        np.multiply(terms[m - 1], minus_q / (m * (m + nu)), out=terms[m], where=keep)
    return fsum_columns(terms)


def _hankel(nu: int, x: np.ndarray) -> np.ndarray:
    # Amplitude/phase form sqrt(2/(pi x)) (P cos w - Q sin w) with
    # w = x - (2 nu + 1) pi / 4.  With a_m = a_(m-1) (mu - (2m - 1)^2) / (8 m x),
    # a_0 = 1, P = a_0 - a_2 + a_4 - ... and Q = a_1 - a_3 + a_5 - ...;
    # each sum stops before its first term no smaller than the one before
    # (optimal truncation), which is far below 1e-12 for x >= 12, and the
    # rows end once both have stopped.  Each sum is sequential, and the
    # closing 0.0 + makes a zero sum +0.0.  A NaN x stops both sums at
    # once, and its NaN w makes the value NaN.
    mu = 4 * nu * nu
    a = np.ones_like(x)
    sums = [np.ones_like(x), np.zeros_like(x)]  # P (a_0 added), Q
    last = [np.ones_like(x), np.full_like(x, math.inf)]  # |previous term|
    live = [np.ones(x.shape, bool), np.ones(x.shape, bool)]
    for m in range(1, 40):
        a = a * ((mu - (2 * m - 1) ** 2) / (8.0 * m * x))
        i = m % 2  # a_m is a term of P at even m, of Q at odd m
        magnitude = np.abs(a)
        live[i] &= magnitude < last[i]
        last[i] = magnitude
        (np.subtract if m // 2 % 2 else np.add)(sums[i], a, out=sums[i], where=live[i])
        if not (live[i].any() or live[1 - i].any()):
            break
    p, q = 0.0 + sums[0], 0.0 + sums[1]
    w = x - (2 * nu + 1) * math.pi / 4.0
    return np.sqrt(2.0 / (math.pi * x)) * (p * libm(math.cos, w) - q * libm(math.sin, w))


def _bessel(nu: int, xs: np.ndarray) -> np.ndarray:
    # J_nu on one block: J_nu(|x|) by the ascending series below the switch
    # and by Hankel at or above it, then J_nu(-x) = (-1)^nu J_nu(x) by
    # np.where, which unlike np.copysign keeps J1(-0.0) at +0.0.
    ax = _finite(np.abs(xs), f"J{nu} needs a finite x")
    values = np.empty_like(ax)
    small = ax < SERIES_ASYMPTOTIC_SWITCH
    for route, where in ((_ascending_series, small), (_hankel, ~small)):
        if where.any():
            values[where] = route(nu, ax[where])
    return np.where(xs < 0, -values, values) if nu % 2 else values


def _finite(x: np.ndarray, message: str) -> np.ndarray:
    # inf has no cos, sin or Bessel value here; a NaN passes through as NaN
    if np.isinf(x).any():
        raise ValueError(message)
    return x


def bessel_j0(x):
    """Bessel J0, absolute error below 1e-12 for |x| <= 50.

    A float in gives a float; an array in gives an array of its shape.
    An infinite x is a ValueError.
    """
    return blockwise(lambda xs: _bessel(0, xs), x)


def bessel_j1(x):
    """Bessel J1, absolute error below 1e-12 for |x| <= 50.

    A float in gives a float; an array in gives an array of its shape.
    An infinite x is a ValueError.
    """
    return blockwise(lambda xs: _bessel(1, xs), x)


# ---------------------------------------------------------------------------
# Closed-form evaluation at the special coupling ratios
# ---------------------------------------------------------------------------

def alpha_closed(k0: float, k: float, t):
    """Closed-form alpha0 for the solvable coupling ratios.

    The couplings are matched in order: K = 0 gives cos(K0 t), K0 = 0 (a
    decoupled qubit) gives 1, then K0 = sqrt(2) K gives J0(2 K t) and
    K0 = K gives J1(2 K t) / (K t),
    each ratio to within RATIO_MATCH_TOL relative to K0.  t is a float or
    an array, walked by :func:`spinwire.numerics.blockwise`.  The equal-couplings
    form has a removable singularity at t = 0, where the value is 1.
    Negative couplings and generic ratios, which have no closed form,
    raise ValueError; the matrix propagator handles the latter.  An
    argument K0*t or 2*K*t that overflows to inf is a ValueError too; a
    NaN t gives NaN.
    """
    if k0 < 0 or k < 0:
        raise ValueError("couplings must be non-negative")
    if k == 0:
        def block(ts):
            return libm(math.cos, _finite(k0 * ts, "alpha0 needs a finite K0*t"))
    elif k0 == 0:
        block = np.ones_like
    elif abs(k0 - math.sqrt(2.0) * k) <= RATIO_MATCH_TOL * k0:
        def block(ts):
            return bessel_j0(_finite(2.0 * k * ts, "alpha0 needs a finite 2*K*t"))
    elif abs(k0 - k) <= RATIO_MATCH_TOL * k0:
        def block(ts):
            y = k * ts
            at_zero = y == 0.0
            j1 = bessel_j1(_finite(2.0 * y, "alpha0 needs a finite 2*K*t"))
            return np.where(at_zero, 1.0, j1 / np.where(at_zero, 1.0, y))
    else:
        raise ValueError(f"no closed form for k0={k0}, k={k}; use the matrix propagator")
    return blockwise(block, t)


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
