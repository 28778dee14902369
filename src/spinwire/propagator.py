"""Numerically exact auto-fidelity from a truncated hopping chain.

Under the Heisenberg flow, the site-0 operator mixes with a ladder of
chain-supported operators whose amplitude vector evolves by a
skew-symmetric tridiagonal generator with couplings (K0, K, K, ...).
A diagonal gauge (multiplying the n-th amplitude by i^n) turns that
generator into -i h, where h is the real symmetric tridiagonal hopping
matrix with zero diagonal and the same off-diagonals, and leaves the
(0, 0) entry of the propagator untouched, so alpha0(t) = <e0|cos(h t)|e0>.
The spectrum of h is chiral (symmetric about zero for a zero-diagonal
tridiagonal matrix), which is why alpha0 is real and even in time.

:class:`ChebyshevAlpha` evaluates it without an eigensolve, by the
Chebyshev propagator (Tal-Ezer & Kosloff 1984; Weisse et al. 2006):

    alpha0(t) = J0(at) + 2 sum_{m>=1} (-1)^m J_2m(at) mu_2m,

with a = max(K0+K, 2K) >= ||h|| and the moments
mu_2m = <e0|T_2m(h/a)|e0> = 2 ||T_m(h/a) e0||^2 - 1 taken from the
three-term Chebyshev recurrence, and the Bessel values from one Miller
loop over an array of times.  :class:`SpectralAlpha` evaluates the chain
through one tridiagonal eigensolve, alpha0(t) = sum_m w_m cos(lambda_m t);
it is the independent reference of the tests.  Its solver,
:func:`eigh_tridiagonal`, imports scipy on the first eigensolve, so the
CLI loads only numpy.  The module-level name stays because
perfbench/tracer.py and test_no_eigensolve_and_moments_once_per_chain
patch it.

The physical chain is semi-infinite; a finite truncation is exact for all
practical purposes once the chain outruns the operator light cone
(support spreads no faster than 2K sites per unit time), and
:func:`choose_chain_length` certifies the choice with the a-priori
:func:`truncation_bound`, which needs no eigensolve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

WEIGHT_SUM_TOL = 1e-12
MOMENT_TOL = 1e-12
BESSEL_TAIL_TOL = 2.0**-54  # half an ulp of 1: the dropped Bessel terms sit below rounding
ORDER_BUCKETS = 16  # series orders are searched at x rounded up to 1/16 of an octave
RESCALE_ABOVE = 2.0**600
RESCALE_BY = 2.0**-600
DEFAULT_TRUNCATION_TOL = 1e-10
LIGHT_CONE_SPEED_FACTOR = 2.0
LIGHT_CONE_BUFFER = 50
TAIL_TERMS = 64

METHODS = ("series", "matrix", "closed")
SERIES, MATRIX, _ = METHODS


class EigensolverError(RuntimeError):
    """The chain's spectrum came back inconsistent: a failed eigendecomposition,
    eigenvector weights that do not sum to 1, or a Chebyshev moment outside [-1, 1]."""


@dataclass(frozen=True)
class ChainSpec:
    """Physical configuration: plug coupling, wire coupling, chain length."""

    k0: float
    k: float
    n_sites: int

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be at least 2, got {self.n_sites}")
        for name, value in (("k0", self.k0), ("k", self.k)):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class AlphaTrace:
    """Sampled alpha0 values with method provenance and an error bound."""

    times: np.ndarray
    values: np.ndarray
    method: str
    truncation_error_bound: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape or times.ndim != 1 or times.size == 0:
            raise ValueError("times and values must be equal-length 1-d arrays")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if times[0] == 0.0 and abs(values[0] - 1.0) > 1e-9:
            raise ValueError(f"alpha0(0) must be 1, got {values[0]!r}")
        if np.max(np.abs(values)) > 1.0 + 1e-12:
            raise ValueError("auto-fidelity values must stay within [-1, 1]")


def build_generator(spec: ChainSpec) -> np.ndarray:
    """Dense symmetric tridiagonal hopping matrix for the chain.

    Zero diagonal; off-diagonal (K0, K, K, ...).  This is the gauge-fixed
    form of the evolution generator, and doubles as the single-excitation
    Hamiltonian of the chain.
    """
    off = _off_diagonal(spec)
    return np.diag(off, 1) + np.diag(off, -1)


def _off_diagonal(spec: ChainSpec) -> np.ndarray:
    off = np.full(spec.n_sites - 1, spec.k, dtype=float)
    off[0] = spec.k0
    return off


class ChebyshevAlpha:
    """alpha0(t) evaluator bound to one chain, without an eigensolve.

    The moments mu_2m are computed once, on demand, and kept: a call
    extends them only when its largest time needs a higher order.  The
    vector T_m(h/a) e0 lives on sites 0..m, so the recurrence runs on a
    support that grows by one site per step until it spans the chain.

    For x = a|t| the series stops at the smallest order M whose dropped
    terms, bounded by |J_n(x)| <= (x/2)^n / n! (DLMF 10.14.4), stay below
    rounding; M is searched once per sixteenth of an octave of x, so that
    a grid needs few searches and a scalar call sees the same M as a grid.
    J_2M+1 down to J_0 come from Miller's backward recurrence (DLMF 3.6),
    started at 1, 0 and normalised by J0 + 2 sum_k J_2k = 1, with a
    power-of-two rescaling against overflow.  A float t runs as a
    one-element array and gives a float; each time's value has the same
    bits whatever else the call holds, so bisection midpoints see the
    values of the grid.  Time 0 gives exactly 1.
    Working memory is O(len(t)) plus the kept moments, one Python float
    (about 32 B) per order, and about 0.7 a max|t| orders: it grows with
    a t whatever the chain length is.
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.a = max(spec.k0 + spec.k, 2.0 * spec.k)
        off = _off_diagonal(spec)
        # 2 h / a; an a of 0 leaves every x at 0 and needs no moment
        self._twice_off = off * (2.0 / self.a) if self.a > 0 else off
        # T_m(h/a) e0 and its predecessor; seeding the predecessor with
        # (h/a) e0 makes the general step 2 (h/a) v - prev give T_1 e0.
        self._vec = np.zeros(spec.n_sites)
        self._vec[0] = 1.0
        self._prev = np.zeros(spec.n_sites)
        self._prev[1] = spec.k0 / self.a if self.a > 0 else 0.0
        self._spare = np.zeros(spec.n_sites)
        self.signed_moments: list[float] = []  # (-1)^m mu_2m, m = 0, 1, ...

    def _extend(self, order: int) -> list[float]:
        """The signed moments up to order, computing the missing ones."""
        moments = self.signed_moments
        n = self.spec.n_sites
        vec, prev, spare = self._vec, self._prev, self._spare
        try:
            for m in range(len(moments), order + 1):
                size = min(m + 1, n)  # vec = T_m(h/a) e0 lives on sites 0..m
                head = vec[:size]
                mu = 2.0 * float(head @ head) - 1.0
                if not abs(mu) <= 1.0 + MOMENT_TOL or (m == 0 and mu != 1.0):
                    raise EigensolverError(f"Chebyshev moment mu_{2 * m} = {mu!r} for {self.spec}")
                moments.append(-mu if m % 2 else mu)
                # T_m+1 e0 = 2 (h/a) T_m e0 - T_m-1 e0 on sites 0..m+1; spare
                # held T_m-2 e0, so it is zero beyond them
                grown = min(size + 1, n)
                twice = self._twice_off[: grown - 1]
                np.negative(prev[:grown], out=spare[:grown])
                spare[1:grown] += twice * vec[: grown - 1]
                spare[: grown - 1] += twice * vec[1:grown]
                vec, prev, spare = spare, vec, prev
        finally:  # the vectors stay in step with the moments kept
            self._vec, self._prev, self._spare = vec, prev, spare
        return moments

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        x = self.a * np.abs(t_arr.ravel())
        if not np.all(np.isfinite(x)):
            raise ValueError("alpha0 needs a finite a*t")
        values = np.ones_like(x)
        rows = np.flatnonzero(x > 0)
        rows = rows[np.argsort(x[rows], kind="stable")]
        orders = _series_orders(x[rows])
        rows, orders = rows[orders > 0], orders[orders > 0]
        if rows.size:
            moments = self._extend(int(orders[-1]))
            values[rows] = _miller_sums(x[rows], orders, moments)
        return float(values[0]) if t_arr.ndim == 0 else values.reshape(t_arr.shape)


def _miller_sums(xs: np.ndarray, orders: np.ndarray, coefficients) -> np.ndarray:
    """J0(x) + 2 sum_{m=1}^{order} c_m J_2m(x) at each x > 0 of an ascending xs.

    Miller's backward recurrence J_n-1 = (2n/x) J_n - J_n+1 from
    J_2order+2 = 0, J_2order+1 = 1, normalised at the end by
    J0 + 2 sum_m J_2m = 1; a power-of-two rescaling keeps the growing
    values below overflow.  The rescaling is exact and is checked every
    other order, between which values grow by at most (2n/x + 1)^2.

    orders are nondecreasing and >= 1.  A row joins the loop when m
    reaches its order; only then are the views re-sliced.  A row's float
    operations do not depend on the other rows: its bits are the same
    alone or in a grid.
    """
    top = int(orders[-1])
    joins = np.searchsorted(orders, np.arange(top + 1))  # first row with order >= m
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
        if s.max() > RESCALE_ABOVE:
            big = s > RESCALE_ABOVE
            for v in (o, e, w, p):
                v[big] *= RESCALE_BY
    j0 = inv * odd - even
    return (j0 + 2.0 * weighted) / (j0 + 2.0 * plain)


def _series_orders(xs: np.ndarray) -> np.ndarray:
    """_series_order of each x > 0 of an ascending xs, one search per bucket."""
    buckets = _order_bucket(xs)
    firsts = np.flatnonzero(np.diff(buckets, prepend=-1.0))
    orders = [_series_order(b) for b in buckets[firsts].tolist()]
    return np.repeat(np.array(orders, dtype=np.int64), np.diff(firsts, append=xs.size))


def _order_bucket(x):
    """x > 0 rounded up to the next of ORDER_BUCKETS steps of its octave, exactly."""
    mantissa, exponent = np.frexp(x)
    return np.ldexp(np.ceil(mantissa * ORDER_BUCKETS) / ORDER_BUCKETS, exponent)


@functools.lru_cache(maxsize=None)
def _series_order(x: float) -> int:
    """Smallest M with 2 sum_{m>M} (x/2)^2m / (2m)! below BESSEL_TAIL_TOL.

    That sum bounds the Bessel terms the series drops at x, each with
    |mu_2m| <= 1, and also the J_2m the normalisation drops.  Callers pass
    bucket values, so the cache holds at most ORDER_BUCKETS per octave.
    """
    limit = math.log(BESSEL_TAIL_TOL / 2.0)

    def enough(order: int) -> bool:
        return _log_tail(x / 2.0, 2 * order + 2, 2) < limit

    if enough(0):
        return 0
    lo, hi = 0, 1  # enough(hi) is false until the doubling ends
    while not enough(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


def eigh_tridiagonal(d, e):
    """scipy.linalg.eigh_tridiagonal, imported on the first eigensolve."""
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e)


# SpectralAlpha and eigh_tridiagonal stay as the tests' reference. scipy loads
# only when an eigensolve runs; the module-level name stays because
# perfbench/tracer.py and test_no_eigensolve_and_moments_once_per_chain patch it.
class SpectralAlpha:
    """alpha0(t) evaluator bound to one chain, by one tridiagonal eigensolve.

    Does the eigensolve once; calls are then a cosine sum.
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        diag = np.zeros(spec.n_sites)
        try:
            lam, vec = eigh_tridiagonal(diag, _off_diagonal(spec))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise EigensolverError(f"eigendecomposition failed for {spec}") from exc
        weights = vec[0, :] ** 2
        total = weights.sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise EigensolverError(
                f"eigenvector weights sum to {total!r} instead of 1 for {spec}"
            )
        self.eigenvalues = lam
        self.weights = weights

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        values = np.cos(np.outer(np.atleast_1d(t_arr), self.eigenvalues)) @ self.weights
        return float(values[0]) if t_arr.ndim == 0 else values


def alpha_trace(
    spec: ChainSpec,
    times,
    truncation_error_bound: float = math.nan,
) -> AlphaTrace:
    """Sample alpha0 on a sorted non-negative time grid."""
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(times < 0):
        raise ValueError("time grid must be non-empty and non-negative")
    values = ChebyshevAlpha(spec)(times)
    return AlphaTrace(
        times=times,
        values=values,
        method=MATRIX,
        truncation_error_bound=truncation_error_bound,
    )


def choose_chain_length(
    k: float,
    t_max: float,
    tol: float = DEFAULT_TRUNCATION_TOL,
    *,
    k0: float | None = None,
) -> int:
    """Smallest certified chain length for simulating up to t_max.

    Starts from the light-cone estimate ceil(2 k t_max) + LIGHT_CONE_BUFFER
    and grows the chain only while :func:`truncation_bound` is not below
    tol, so the returned N is certified on the whole grid 0 <= t <= t_max
    without an eigensolve.  Only a strong plug at long times needs more
    than the start.

    The bound needs a plug coupling: k0 defaults to k.
    """
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return 2  # single-site environment; alpha0 is exactly periodic
    plug = k if k0 is None else k0

    n = math.ceil(LIGHT_CONE_SPEED_FACTOR * k * t_max) + LIGHT_CONE_BUFFER
    while truncation_bound(plug, k, n, t_max) >= tol:
        n += 1
    return n


def truncation_bound(k0: float, k: float, n_sites: int, t_max: float) -> float:
    """Upper bound on |alpha0 at n_sites - alpha0 of the semi-infinite chain|
    for every 0 <= t <= t_max; floating-point rounding is not included.

    A closed walk from site 0 that reaches site N has at least 2N steps,
    so the truncated and the infinite chain share every moment
    <e0|h^j|e0> with j < 2N.  The bound is the smaller of two tails:

    * Chebyshev (Tal-Ezer & Kosloff 1984; Weisse et al. 2006):
      alpha0(t) = J0(at) + 2 sum_{j>=1} (-1)^j J_2j(at) <e0|T_2j(h/a)|e0> with
      a = max(K0+K, 2K) >= ||h|| (Gershgorin).  The moments differ only
      from j = N on, each by at most 2, and |J_n(x)| <= (x/2)^n / n!
      (DLMF 10.14.4), giving 4 sum_{j>=N} (at/2)^(2j) / (2j)!.
    * Dyson, in the interaction picture about the site-0/1 dimer: the
      wire couplings have norm <= 2K and a term of order m reaches site N
      and returns only if m >= 2N - 2, giving 2 sum_{m>=2N-2} (2Kt)^m / m!.
      It does not depend on K0, so strong plugs do not inflate N.

    Both tails grow with t, so their value at t_max covers the grid.  They
    are summed in log space: at t_max = 1, K = 1024 the terms reach
    2048^m / m!, far beyond float range.  The result may exceed 2, the
    trivial bound; past float range it is inf, not an OverflowError.
    """
    if min(k0, k, t_max) < 0 or n_sites < 2:
        raise ValueError(
            f"need k0, k, t_max >= 0 and n_sites >= 2, got {k0}, {k}, {t_max}, {n_sites}"
        )
    a = max(k0 + k, 2.0 * k)
    chebyshev = math.log(4.0) + _log_tail(a * t_max / 2.0, 2 * n_sites, 2)
    dyson = math.log(2.0) + _log_tail(2.0 * k * t_max, 2 * n_sites - 2, 1)
    log_bound = min(chebyshev, dyson)
    return math.exp(log_bound) if log_bound < 700.0 else math.inf


def _log_tail(y: float, start: int, step: int) -> float:
    """Upper bound on log sum_{j>=0} y^m / m! over m = start + step j."""
    if y == 0.0:
        return -math.inf
    if start <= y:
        return y  # the terms still grow here; the whole series sums to e^y
    log_y = math.log(y)
    ms = range(start, start + step * (TAIL_TERMS + 1), step)
    logs = [m * log_y - math.lgamma(m + 1) for m in ms]
    # The terms fall from logs[0] on, and past the last one the ratio of
    # neighbours stays below rho < 1, so a geometric series covers the rest.
    rho = (y / (ms[-1] + 1.0)) ** step
    head = logs[0]
    scaled = sum(math.exp(v - head) for v in logs[:-1]) + math.exp(logs[-1] - head) / (1 - rho)
    return min(y, head + math.log(scaled))


def truncation_gap(spec: ChainSpec, t_max: float) -> float:
    """|alpha0(t_max) at N sites - at 2N sites|, the doubling residual.

    An eigensolve-based check of :func:`truncation_bound`; choosing the
    chain length does not use it.
    """
    doubled = ChainSpec(spec.k0, spec.k, 2 * spec.n_sites)
    return abs(SpectralAlpha(spec)(t_max) - SpectralAlpha(doubled)(t_max))
