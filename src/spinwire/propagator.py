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
:func:`choose_chain_length` certifies the choice by a doubling test.
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
MAX_DOUBLINGS = 6

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
    max_doublings: int = MAX_DOUBLINGS,
) -> int:
    """Smallest certified chain length for simulating up to t_max.

    Starts from the light-cone estimate ceil(2 k t_max) + buffer, then
    certifies it by comparing alpha0(t_max) for N and 2N sites; if the
    gap is not below tol the length doubles, up to max_doublings.  Sites
    beyond the light cone cannot influence the site-0 operator, so this
    converges fast; the doubling test keeps the speed constant honest.

    The certification needs a plug coupling: k0 defaults to k.
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
    for _ in range(max_doublings + 1):
        gap = truncation_gap(ChainSpec(plug, k, n), t_max)
        if gap < tol:
            return n
        n *= 2
    raise RuntimeError(
        f"chain length did not converge for k={k}, t_max={t_max}, tol={tol} "
        f"after {max_doublings} doublings"
    )


def truncation_gap(spec: ChainSpec, t_max: float) -> float:
    """|alpha0(t_max) at N sites - at 2N sites|, the doubling residual."""
    doubled = ChainSpec(spec.k0, spec.k, 2 * spec.n_sites)
    return abs(SpectralAlpha(spec)(t_max) - SpectralAlpha(doubled)(t_max))
