"""Shared numerical utilities: adaptive quadrature, root refinement (one
bisection for many brackets), and elementwise libm calls on arrays in
bounded blocks."""

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


# No caller in the package since chi is exact; stays importable: perfbench/tracer.py reads it by name.
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
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    *,
    f_lo=None,
    f_hi=None,
    xtol: float = 1e-12,
    max_iter: int = 200,
):
    """Bisection of a float bracket, or of equal-length arrays of them at once.

    f maps an array of midpoints to their values.  Each bracket stops on
    its own (at an endpoint or midpoint where f is 0, once hi - lo <= xtol,
    or after max_iter midpoints) with the bits of a one-bracket call.
    ValueError when a bracket holds no sign change.
    """
    scalar = np.ndim(lo) == 0
    lo, hi = (np.array(v, dtype=float, ndmin=1) for v in (lo, hi))
    f_lo = np.array(f(lo) if f_lo is None else f_lo, dtype=float, ndmin=1)
    f_hi = np.array(f(hi) if f_hi is None else f_hi, dtype=float, ndmin=1)
    roots = np.where(f_lo == 0.0, lo, hi)
    todo = np.flatnonzero((f_lo != 0.0) & (f_hi != 0.0))
    same = (f_lo[todo] > 0) == (f_hi[todo] > 0)
    if same.any():
        i = todo[np.argmax(same)]
        raise ValueError(f"no sign change on [{lo[i]}, {hi[i]}]: f={f_lo[i]}, {f_hi[i]}")
    for _ in range(max_iter):
        mid = 0.5 * (lo[todo] + hi[todo])
        roots[todo] = mid
        going = ~(hi[todo] - lo[todo] <= xtol)  # a NaN width does not stop
        todo, mid = todo[going], mid[going]
        if not todo.size:
            break
        f_mid = f(mid)
        upper = (f_mid > 0) == (f_hi[todo] > 0)
        hi[todo[upper]], f_hi[todo[upper]] = mid[upper], f_mid[upper]
        lo[todo[~upper]] = mid[~upper]
        todo = todo[f_mid != 0.0]
    roots[todo] = 0.5 * (lo[todo] + hi[todo])
    return float(roots[0]) if scalar else roots

