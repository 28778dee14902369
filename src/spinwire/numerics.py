"""Shared numerical utilities: the one walk of a float-or-array grid in
bounded blocks (:func:`blockwise`), elementwise libm calls, the one
search for the least integer with a property (:func:`least`), root
refinement (one bisection for many brackets, with the midpoints of
several steps in each evaluation), and adaptive Simpson quadrature."""

from __future__ import annotations

from typing import Callable

import numpy as np

Scalar = Callable[[float], float]

# Samples per block for the array routes and the CSV and SVG formatters:
# their working memory stays bounded whatever the grid size.
CHUNK = 4096

# Bisection steps whose midpoints one call of f covers: 2^TREE_DEPTH - 1
# points per bracket.  At 4 the 21 witness edges of the README example
# take 6 calls instead of 22.  Deeper trees save a call or two but
# evaluate more points nobody reads: with 500 edges, 5 is no faster than
# one midpoint per call, 4 still twice as fast.
TREE_DEPTH = 4

# Midpoints one bracket gets at most, a multiple of TREE_DEPTH.  Most
# brackets stop on xtol long before; one narrower than the ulp spacing
# of its root (a witness edge near t = 1e8 at xtol 1e-9) stops shrinking,
# and only this count ends it.
MAX_ITER = 200


def chunks(n: int):
    """Consecutive slices of at most CHUNK items covering range(n)."""
    return (slice(lo, lo + CHUNK) for lo in range(0, n, CHUNK))


def blockwise(fn, t):
    """fn, a map from a 1-d float64 block to values of its length, over t one CHUNK at a time.

    A float or 0-d t gives a float; an array gives an array of t's shape.
    Working memory is the result plus what fn holds for one block.  fn
    must be pure: the blocks are walked last first.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    values = np.empty(flat.size)
    # last first: on an ascending grid the first block holds the largest times,
    # so an evaluator that sizes its state from them (ChebyshevAlpha) sizes it once
    for block in reversed(list(chunks(flat.size))):
        values[block] = fn(flat[block])
    return float(values[0]) if t.ndim == 0 else values.reshape(t.shape)


def libm(fn, x):
    """fn, a float function built on libm such as math.cos, on each element of x.

    Each value is the one a scalar call gives, bit for bit: numpy's own
    cos, sin and power differ from libm in the last bit on some inputs.
    The elements pass through Python floats in :func:`blockwise` blocks.
    """
    return blockwise(lambda xs: list(map(fn, xs.tolist())), x)


def least(holds: Callable[[int], bool], start: int) -> int:
    """The least integer n >= start with holds(n), for a holds that stays true once true.

    Tries start, then start + 1, start + 2, start + 4, .. until holds, and
    bisects the last step: about 2 log2(n - start) calls of holds, and one
    when holds(start).
    """
    lo, hi = start - 1, start  # lo is start - 1 or an n where holds fails
    while not holds(hi):
        lo, hi = hi, start + max(1, 2 * (hi - start))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


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
):
    """Bisection of a float bracket, or of equal-length arrays of them at once.

    f maps an array of points to their values, each with the bits it has
    alone.  Each bracket stops on its own (at an endpoint or midpoint
    where f is 0, once hi - lo <= xtol, or after MAX_ITER midpoints) with
    the bits of a one-bracket call.  One call of f covers the next
    TREE_DEPTH steps of every bracket still going: it takes the
    2^TREE_DEPTH - 1 midpoints those steps can reach, each 0.5 * (lo + hi)
    of the sub-bracket it splits, so the steps then read f at the bits
    of their own midpoints.  ValueError when a bracket holds no sign
    change.
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
    # tree[i, j] is f at point j of bracket i's midpoint tree, numbered from 0 at
    # its lo to 2^TREE_DEPTH at its hi when the tree was built; the bracket now runs
    # from point left[i] to left[i] + span, and at span 1 the tree is used up
    left, span = np.zeros(lo.size, dtype=np.intp), 1
    for steps in range(MAX_ITER + 1):
        mid = 0.5 * (lo[todo] + hi[todo])
        roots[todo] = mid
        going = ~(hi[todo] - lo[todo] <= xtol)  # a NaN width does not stop
        todo, mid = todo[going], mid[going]
        if not todo.size or steps == MAX_ITER:
            break
        if span == 1:
            tree = np.empty((lo.size, 2**TREE_DEPTH + 1))
            tree[todo, 1:-1] = np.reshape(f(_midpoint_tree(lo[todo], hi[todo])), (todo.size, -1))
            left[todo], span = 0, 2**TREE_DEPTH
        span //= 2
        f_mid = tree[todo, left[todo] + span]
        upper = (f_mid > 0) == (f_hi[todo] > 0)
        hi[todo[upper]], f_hi[todo[upper]] = mid[upper], f_mid[upper]
        lo[todo[~upper]] = mid[~upper]
        left[todo[~upper]] += span
        todo = todo[f_mid != 0.0]
    return float(roots[0]) if scalar else roots


def _midpoint_tree(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 2^TREE_DEPTH - 1 midpoints of TREE_DEPTH bisection steps of each bracket, flat.

    Row by row and left to right: every point is 0.5 * (a + b) of the two
    points it lies between, as bisection computes it.
    """
    points = np.stack([lo, hi], axis=1)
    for _ in range(TREE_DEPTH):
        finer = np.empty((points.shape[0], 2 * points.shape[1] - 1))
        finer[:, ::2] = points
        finer[:, 1::2] = 0.5 * (points[:, :-1] + points[:, 1:])
        points = finer
    return points[:, 1:-1].ravel()
