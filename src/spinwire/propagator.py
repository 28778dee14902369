"""Numerically exact auto-fidelity from a truncated hopping chain.

Under the Heisenberg flow, the site-0 operator mixes with a ladder of
chain-supported operators whose amplitude vector evolves by a
skew-symmetric tridiagonal generator with couplings (K0, K, K, ...).
A diagonal gauge (multiplying the n-th amplitude by i^n) turns that
generator into -i h, where h is the real symmetric tridiagonal hopping
matrix with zero diagonal and the same off-diagonals, and leaves the
(0, 0) entry of the propagator untouched.  Hence

    alpha0(t) = sum_m w_m cos(lambda_m t),

with lambda_m the eigenvalues of h and w_m the squared first components
of its orthonormal eigenvectors.  The sine part cancels because the
spectrum of h is chiral (symmetric about zero for a zero-diagonal
tridiagonal matrix), which is also why alpha0 is real and even in time.

One tridiagonal eigensolve per chain serves every sample time, which is
the right trade when the generator is fixed and t sweeps a grid.  The
physical chain is semi-infinite; a finite truncation is exact for all
practical purposes once the chain outruns the operator light cone
(support spreads no faster than 2K sites per unit time), and
:func:`choose_chain_length` certifies the choice with the a-priori
:func:`truncation_bound`, which needs no eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

WEIGHT_SUM_TOL = 1e-12
DEFAULT_TRUNCATION_TOL = 1e-10
LIGHT_CONE_SPEED_FACTOR = 2.0
LIGHT_CONE_BUFFER = 50
TAIL_TERMS = 64

METHODS = ("series", "matrix", "closed")
SERIES, MATRIX, _ = METHODS


class EigensolverError(RuntimeError):
    """Tridiagonal eigendecomposition failed or came back inconsistent."""


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


class SpectralAlpha:
    """alpha0(t) evaluator bound to one chain.

    Does the eigensolve once; calls are then a cosine sum, cheap enough
    for dense grids and for bisection refinement of crossing times.
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
    values = SpectralAlpha(spec)(times)
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
    buffer: int = LIGHT_CONE_BUFFER,
) -> int:
    """Smallest certified chain length for simulating up to t_max.

    Starts from the light-cone estimate ceil(2 k t_max) + buffer and
    grows the chain only while :func:`truncation_bound` is not below tol,
    so the returned N is certified on the whole grid 0 <= t <= t_max
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

    n = math.ceil(LIGHT_CONE_SPEED_FACTOR * k * t_max) + buffer
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
