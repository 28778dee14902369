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
through one dense eigensolve, alpha0(t) = sum_m w_m cos(lambda_m t), the
Gauss quadrature of the site-0 spectral measure (Golub & Welsch 1969);
it is the independent reference of the tests.

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

from .numerics import _log_tail, blockwise, least

WEIGHT_SUM_TOL = 1e-12
MOMENT_TOL = 1e-12
BESSEL_TAIL_TOL = 2.0**-54  # half an ulp of 1: the dropped Bessel terms sit below rounding
ORDER_BUCKETS = 16  # series orders are searched at x rounded up to 1/16 of an octave
RESCALE_ABOVE = 2.0**600
RESCALE_BY = 2.0**-600
DEFAULT_TRUNCATION_TOL = 1e-10
LIGHT_CONE_SPEED_FACTOR = 2.0
LIGHT_CONE_BUFFER = 50


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

    Its only state besides the chain is ``signed_moments``, the float64
    array (-1)^m mu_2m for m = 0, 1, .., which starts empty.  A call whose
    largest time needs an order past it replaces it whole by
    :func:`_signed_moments` at exactly that order + 1, and evaluates from
    the array it built; any other call reads the kept array.  The grids
    of the package run their largest times first, so each evaluator
    builds its moments once.  The moments are a pure function of the
    chain, so a shared evaluator is safe across threads: a thread that
    replaces the array can at worst drop moments another thread computed,
    never change one.

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
    The times run through :func:`spinwire.numerics.blockwise`, each block
    sorted and summed on its own, so working memory is the returned array plus
    O(CHUNK), plus the kept moments: about 0.7 a max|t| orders of them at
    8 B each, and O(min(N, M)) while they are computed.  The moments grow
    with a t whatever the chain length is.
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.a = max(spec.k0 + spec.k, 2.0 * spec.k)
        self.signed_moments = np.empty(0)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # a * |t| rounds monotonically, so the largest time needs the top order
        x_max = self.a * max(abs(t.max()), abs(t.min())) if t.size else 0.0
        if not math.isfinite(x_max):
            raise ValueError("alpha0 needs a finite a*t")
        order = _series_order(float(_order_bucket(x_max))) if x_max > 0 else 0
        moments = self.signed_moments
        if order and order >= moments.size:
            moments = _signed_moments(self.spec, self.a, order + 1)
            self.signed_moments = moments

        def block(ts):
            values = np.ones(ts.size)
            x = self.a * np.abs(ts)
            rows = np.flatnonzero(x > 0)
            rows = rows[np.argsort(x[rows], kind="stable")]
            orders = _series_orders(x[rows])
            rows, orders = rows[orders > 0], orders[orders > 0]
            if rows.size:
                values[rows] = _miller_sums(x[rows], orders, moments)
            return values

        return blockwise(block, t)


def _signed_moments(spec: ChainSpec, a: float, count: int) -> np.ndarray:
    """(-1)^m mu_2m = (-1)^m (2 ||T_m(h/a) e0||^2 - 1) for m < count, a > 0.

    T_m(h/a) e0 lives on sites 0..m, so the three-term recurrence runs on
    a support that grows by one site per step, on the first
    min(N, count + 1) sites only: memory is O(min(N, count)).  A moment
    outside [-1, 1] (an a below ||h||) is an EigensolverError.
    """
    n = min(spec.n_sites, count + 1)
    twice_off = _off_diagonal(ChainSpec(spec.k0, spec.k, n)) * (2.0 / a)  # 2 h / a on those sites
    # T_m(h/a) e0 and its predecessor; seeding the predecessor with
    # (h/a) e0 makes the general step 2 (h/a) v - prev give T_1 e0.
    vec, prev, spare = np.zeros(n), np.zeros(n), np.zeros(n)
    vec[0] = 1.0
    prev[1] = spec.k0 / a
    moments = np.empty(count)
    for m in range(count):
        size = min(m + 1, n)  # vec = T_m(h/a) e0 lives on sites 0..m
        head = vec[:size]
        mu = 2.0 * float(head @ head) - 1.0
        if not abs(mu) <= 1.0 + MOMENT_TOL or (m == 0 and mu != 1.0):
            raise EigensolverError(f"Chebyshev moment mu_{2 * m} = {mu!r} for {spec}")
        moments[m] = -mu if m % 2 else mu
        # T_m+1 e0 = 2 (h/a) T_m e0 - T_m-1 e0 on sites 0..m+1; spare
        # held T_m-2 e0, so it is zero beyond them
        grown = min(size + 1, n)
        twice = twice_off[: grown - 1]
        np.negative(prev[:grown], out=spare[:grown])
        spare[1:grown] += twice * vec[: grown - 1]
        spare[: grown - 1] += twice * vec[1:grown]
        vec, prev, spare = spare, vec, prev
    return moments


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
    return least(lambda order: _log_tail(x / 2.0, 2 * order + 2, 2) < limit, 0)


def eigh_tridiagonal(d, e):
    """Eigenvalues and eigenvectors of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by one dense numpy.linalg.eigh."""
    return np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


class SpectralAlpha:
    """alpha0(t) evaluator bound to one chain, by one dense eigensolve.

    Does the eigensolve once; calls are then a cosine sum over each
    :func:`spinwire.numerics.blockwise` block of times, so a call's
    working memory is O(CHUNK N) besides the returned array.
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
        # one CHUNK of times x N sites at a time; each row summed by numpy's own
        # pairwise sum, so a float t gets the bits it gets inside a grid, in any
        # block; a matrix-vector product sums one row in another order
        def cosine_sum(ts):
            terms = np.outer(ts, self.eigenvalues)
            np.cos(terms, out=terms)
            terms *= self.weights
            return terms.sum(axis=1)

        return blockwise(cosine_sum, t)


def choose_chain_length(
    k: float,
    t_max: float,
    tol: float = DEFAULT_TRUNCATION_TOL,
    *,
    k0: float,
) -> int:
    """Smallest certified chain length at or above the light-cone start, for
    simulating up to t_max.

    The start is ceil(2 k t_max) + LIGHT_CONE_BUFFER, and the result the
    least N from there whose :func:`truncation_bound` is below tol, so it
    is certified on the whole grid 0 <= t <= t_max without an eigensolve.
    The bound stays below tol once it is: both of its tails shrink as N
    grows, so :func:`spinwire.numerics.least` finds that N.  Only a strong
    plug at long times needs more than the start; shorter chains below
    the start may certify too (K0 = K = 1, t_max = 10 gives the start 70,
    where 23 sites already would).  K = 0 (a single-site environment) and
    t_max = 0 (nothing to simulate) give the 2-site minimum.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    if not all(0 <= x < math.inf for x in (k0, k, t_max)):
        raise ValueError(f"k0, k and t_max must be finite and non-negative, got {k0}, {k}, {t_max}")
    if k == 0 or t_max == 0:
        return 2
    start = math.ceil(LIGHT_CONE_SPEED_FACTOR * k * t_max) + LIGHT_CONE_BUFFER
    return least(lambda n: truncation_bound(k0, k, n, t_max) < tol, start)


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
    if not all(0 <= x < math.inf for x in (k0, k, t_max)) or n_sites < 2:
        raise ValueError(f"need finite k0, k, t_max >= 0 and n_sites >= 2, "
                         f"got {k0}, {k}, {t_max}, {n_sites}")
    a = max(k0 + k, 2.0 * k)
    chebyshev = math.log(4.0) + _log_tail(a * t_max / 2.0, 2 * n_sites, 2)
    dyson = math.log(2.0) + _log_tail(2.0 * k * t_max, 2 * n_sites - 2, 1)
    log_bound = min(chebyshev, dyson)
    return math.exp(log_bound) if log_bound < 700.0 else math.inf


def truncation_gap(spec: ChainSpec, t_max: float) -> float:
    """|alpha0(t_max) at N sites - at 2N sites|, the doubling residual.

    An eigensolve-based check of :func:`truncation_bound`; choosing the
    chain length does not use it.
    """
    doubled = ChainSpec(spec.k0, spec.k, 2 * spec.n_sites)
    return abs(SpectralAlpha(spec)(t_max) - SpectralAlpha(doubled)(t_max))
