"""Shared numerical utilities: adaptive quadrature, root refinement, and
elementwise libm calls on arrays in bounded blocks."""

from __future__ import annotations

from typing import Callable

import numpy as np

Scalar = Callable[[float], float]

# Samples per block for the array routes and the CSV and SVG formatters:
# their working memory stays bounded whatever the grid size.
CHUNK = 4096


def chunks(n: int):
    """Consecutive slices of at most CHUNK items covering range(n)."""
    return (slice(lo, lo + CHUNK) for lo in range(0, n, CHUNK))


def libm(fn, x: np.ndarray) -> np.ndarray:
    """fn, a float function built on libm such as math.cos, on each element of x.

    Each value is the one a scalar call gives, bit for bit: numpy's own
    cos, sin and power differ from libm in the last bit on some inputs.
    The elements pass through Python floats one CHUNK at a time.
    """
    flat = x.ravel()
    values = np.empty(flat.size)
    for block in chunks(flat.size):
        values[block] = list(map(fn, flat[block].tolist()))
    return values.reshape(x.shape)


def adaptive_simpson(
    f: Scalar, a: float, b: float, tol: float, max_depth: int = 40
) -> float:
    """Adaptive composite Simpson quadrature of f over [a, b].

    Splits intervals until the Richardson estimate of the local error is
    within the (subdivided) tolerance, then applies the standard /15
    correction.  Depth exhaustion raises rather than returning a value
    that misses the requested tolerance.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        if depth <= 0:
            raise RuntimeError(
                f"adaptive Simpson exceeded depth {max_depth} on [{a}, {b}]"
            )
        half = 0.5 * tol
        return recurse(a, m, fa, flm, fm, left, half, depth - 1) + recurse(
            m, b, fm, frm, fb, right, half, depth - 1
        )

    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def bisect_root(
    f: Scalar,
    lo: float,
    hi: float,
    *,
    f_lo: float | None = None,
    f_hi: float | None = None,
    xtol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Bisection on a bracketing interval; returns the midpoint estimate."""
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={f_lo}, {f_hi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def bracket_first_sign_change(
    f: Scalar, start: float, stop: float, factor: float = 1.05
) -> tuple[float, float] | None:
    """March geometrically from start toward stop; bracket the first sign flip.

    Geometric stepping resolves roots that sit orders of magnitude below
    stop without paying for a uniform fine grid.  Returns None when the
    sign never flips.
    """
    if not (0 < start < stop and factor > 1):
        raise ValueError("need 0 < start < stop and factor > 1")
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
