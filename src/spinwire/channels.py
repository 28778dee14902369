"""Qubit-level experiments built on top of the auto-fidelity.

Everything downstream of alpha0 lives here:

* the reduced single-qubit channel for a maximally mixed environment
  (transverse Bloch components scale by alpha0, the longitudinal one by
  alpha0 squared);
* an exponentiality metric: integrated squared distance between the
  rescaled decay and exp(-x) on the unit interval, exact in closed form
  and computed in integers;
* the first inflection point of the rescaled decay, numerically and in
  its short-time quadratic approximation;
* the Bloch-vector length of a qubit evolving against a fully
  magnetized chain (single-excitation sector);
* the two-qubit singlet correlation witness with sudden-death and
  rebirth detection;
* a finite-frequency recurrence demo showing why a finite environment
  cannot keep revivals away forever.

The Bloch trace and the witness take alpha0 as an evaluator, whichever
route computes it: any callable that maps a 1-d float64 array of times
to alpha0 at each time, each time's bits independent of the other times
in the call.  ``ChebyshevAlpha``, ``SpectralAlpha`` and
``functools.partial(alpha_closed, k0, k)`` all qualify.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import bisect_root, blockwise, chunks
from .series import DEFAULT_ORDER, _as_fraction, _check_order, _series_pairs, horner

WITNESS_THRESHOLD = 1.0
CROSSING_XTOL = 1e-9
INFLECTION_START = 1e-6
INFLECTION_GROWTH = 1.05
INFLECTION_WINDOW = 3.0
DEFAULT_QUAD_TOL = 1e-10
CHI_GUARD_DIGITS = 40


# ---------------------------------------------------------------------------
# Reduced single-qubit channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlochVector:
    vx: float
    vy: float
    vz: float

    def __post_init__(self) -> None:
        if self.norm_sq > 1.0 + 1e-12:
            raise ValueError(f"Bloch vector leaves the unit ball: {self}")

    @property
    def norm_sq(self) -> float:
        return self.vx**2 + self.vy**2 + self.vz**2


def apply_channel(v: BlochVector, alpha: float) -> BlochVector:
    """Reduced dynamics against a maximally mixed environment.

    Only the alpha0-weighted part of the evolved operator survives the
    environment trace, so the transverse components contract by alpha
    and the longitudinal one by alpha squared.  Applying alpha1 then
    alpha2 equals applying alpha1*alpha2: the family is a semigroup in
    alpha.
    """
    return BlochVector(alpha * v.vx, alpha * v.vy, alpha * alpha * v.vz)


# ---------------------------------------------------------------------------
# Exponentiality metric
# ---------------------------------------------------------------------------

def chi_metric(
    ratio: float, order: int = DEFAULT_ORDER, quad_tol: float = DEFAULT_QUAD_TOL
) -> float:
    """Integrated squared deviation of the rescaled decay from exp(-x).

    Time is rescaled so the characteristic decay time K/K0^2 equals one,
    which pins K0 = ratio and K = ratio^2 for ratio = K/K0.  The decay
    curve is the order-`order` truncated series P, and chi is the
    integral of (P(x) - exp(-x))^2 over x in [0, 1], taken exactly: P is
    a polynomial, so chi = A + B e^-1 + C e^-2 with rational A, B and C,
    evaluated in integers (see :func:`_chi_closed_form`) and rounded once
    to a float.  A chi past the float range raises OverflowError.

    For large ratios the truncated series stops converging inside the
    unit interval and truncation, not physics, dominates the metric; a
    warning is issued when the series error estimate at x = 1 exceeds
    quad_tol, which is only that threshold: chi itself is exact.
    """
    r = _as_fraction(ratio, "ratio")
    if r <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    _check_order(order)
    pairs = _series_pairs(k0_sq=r * r, k_sq=r**4, order=order)
    chi = _chi_closed_form(pairs)
    if math.isinf(chi):
        raise OverflowError(f"chi at ratio {ratio} overflows a float (order {order})")
    if chi < 0:
        raise ValueError(f"chi at ratio {ratio} is negative: {chi!r} (order {order})")

    # the series error estimate at x = 1, twice the last coefficient
    numerator, denominator = pairs[-1]
    try:
        tail = 2.0 * abs(numerator / denominator)
    except OverflowError:
        tail = math.inf
    if tail > quad_tol:
        warnings.warn(
            f"series truncation error {tail:.3g} at x=1 exceeds quad_tol "
            f"{quad_tol:.3g} at ratio {ratio}; chi is truncation-dominated",
            RuntimeWarning,
            stacklevel=2,
        )
    return chi


def _chi_closed_form(pairs) -> float:
    """Integral over [0, 1] of (P(x) - exp(-x))^2 for P(x) = sum_j c_j x^(2j).

    c_j = n_j / d_j for the integer pairs (n_j, d_j), d_j > 0, which need
    not be in lowest terms: only floor divisions of them are taken.  The
    signs alternate, as in every series of :mod:`spinwire.series`: n_j is
    0 or has the sign (-1)^j.

    It is sum_n s_n / (2n+1) - 2 sum_j c_j I_2j + (1 - e^-2) / 2, with
    s_n = sum_{i+j=n} c_i c_j and I_n the integral of x^n e^-x over [0, 1],
    all in integers at scale S = 10^p: each c_j is carried as
    C_j = floor(n_j S / d_j), with p = CHI_GUARD_DIGITS +
    2 log10(1 + sum |c_j|); sum |c_j| bounds |P| on [0, 1], so no term
    exceeds (1 + sum |c_j|)^2 and chi is right to about
    10^-CHI_GUARD_DIGITS however hard the terms cancel.  The s_n S^2 are
    exact, from one big-integer square of the packed C_j (Kronecker
    substitution, :func:`_alternating_square`), and each takes one floor
    division by 2n+1.  e^-1 S is sum_k (-1)^k floor(S / k!); I_2M is
    e^-1 sum_{k>2M} (2M)!/k!, and the downward recurrence
    I_(n-1) = (I_n + e^-1) / n gives the rest and divides an error by n
    at each step, where n! - M_n e^-1 would cancel by about (2M)!.  One
    int/int division, which Python rounds correctly, gives the float, or
    inf when it overflows.

    As |e^-x| < 1 on [0, 1], chi >= (||P|| - 1)^2, so an integral of P^2
    above 2^1025 proves chi past the float range.  The last coefficient
    proves it before anything is scaled or squared: the monic shifted
    Legendre polynomial has the least norm on [0, 1] among monic
    polynomials of its degree n = 2M, so the integral of P^2 is at least
    c_M^2 (n!)^4 / ((2n)!^2 (2n+1)) >= c_M^2 / (16^n (2n+1)), and a c_M^2
    above 2^(1025 + 8M) (4M+1), checked on bit lengths, gives inf at once.
    A chi the check misses overflows in the final division.
    """
    top = len(pairs) - 1
    n_top, d_top = pairs[-1]
    log2_c_top = abs(n_top).bit_length() - 1 - d_top.bit_length()  # log2 |c_M| >= this
    if 2 * log2_c_top > 1025 + 8 * top + (4 * top + 1).bit_length():
        return math.inf
    # an integer >= 1 + sum |c_j|, without the gcds of a Fraction sum
    bound = sum(abs(n) // d + 1 for n, d in pairs)
    scale = 10 ** (CHI_GUARD_DIGITS + 2 * math.ceil(math.log10(bound)))
    scaled = [n * scale // d for n, d in pairs]
    # the integral of P^2, times S^2
    total = sum(s // (2 * n + 1) for n, s in enumerate(_alternating_square(scaled)))

    e_inv, term, k = 0, scale, 0
    while term:
        e_inv += -term if k % 2 else term
        k += 1
        term //= k
    moment, term, k = 0, scale, 2 * top
    while term:
        k += 1
        term //= k
        moment += term
    moment = moment * e_inv // scale  # I_2M
    cross = 0
    for n in range(2 * top, -1, -1):
        if n % 2 == 0:
            cross += scaled[n // 2] * moment
        if n:
            moment = (moment + e_inv) // n
    try:
        return (total - 2 * cross + (scale * scale - e_inv * e_inv) // 2) / (scale * scale)
    except OverflowError:
        return math.inf


def _alternating_square(values: list[int]) -> list[int]:
    """[s_0, .., s_2M] with s_n = sum_{i+j=n} v_i v_j, for v_j that are 0 or of sign (-1)^j.

    One big-integer square (Kronecker substitution): the |v_j| are packed
    at a byte stride of at least 2 b + bitlen(M + 1) + 1 bits, b the bit
    length of the largest, which holds any sum_i |v_i| |v_(n-i)| <
    (M + 1) 2^(2b); each s_n is read back from the bytes of the square,
    and its sign is (-1)^n.
    """
    magnitudes = [abs(v) for v in values]
    count = 2 * len(values) - 1
    stride = (2 * max(magnitudes).bit_length() + len(values).bit_length() + 8) // 8
    packed = int.from_bytes(b"".join(m.to_bytes(stride, "little") for m in magnitudes), "little")
    square = (packed * packed).to_bytes(count * stride, "little")
    sums = [int.from_bytes(square[n * stride:(n + 1) * stride], "little") for n in range(count)]
    sums[1::2] = [-s for s in sums[1::2]]
    return sums


# ---------------------------------------------------------------------------
# Inflection point of the rescaled decay
# ---------------------------------------------------------------------------

def inflection_point(
    k0: float, k: float, order: int = DEFAULT_ORDER
) -> tuple[float, float]:
    """First inflection of alpha0((K/K0^2) x): numeric and quadratic-truncation.

    The rescaled decay is chi's series: the couplings K0 -> K/K0 and
    K -> K^2/K0 turn t into x, as the coefficient of t^(2j) is
    homogeneous of degree j in (K0^2, K^2).  The numeric value is the
    first root of its second derivative (term-by-term differentiation),
    evaluated in one array call on the geometric grid
    x_0 = INFLECTION_START, x_(i+1) = INFLECTION_GROWTH x_i, closed at
    INFLECTION_WINDOW.  The first grid edge where it is 0 at the left end
    or changes sign is refined by bisection; RuntimeError when there is
    none.  The truncated value keeps only the x^0 and x^2 terms of that
    derivative, giving the closed form sqrt(2) (K^2/K0^2 + K^4/K0^4)^(-1/2).
    Both depend on the couplings only through K/K0.  An order below 2 is
    a ValueError, as for chi, before any series is built.  Returns
    (numeric_x0, truncated_x0).
    """
    plug = _as_fraction(k0, "k0")
    wire = _as_fraction(k, "k")
    if plug <= 0 or wire <= 0:
        raise ValueError(f"couplings must be positive, got k0={k0}, k={k}")
    _check_order(order)
    r = wire / plug

    # Second derivative of the rescaled series: sum over j >= 1 of
    # c_j (2j)(2j-1) x^(2j-2), with float coefficients and Horner in x^2.
    # With c_j = n/d each coefficient is one int/int division of the exact
    # product, so correctly rounded.
    pairs = _series_pairs(k0_sq=r * r, k_sq=r**4, order=order)
    second = [n * (2 * j) * (2 * j - 1) / d for j, (n, d) in enumerate(pairs[1:], 1)]

    def d2(x):
        return horner(second, x * x)

    # each x_(i+1) is the rounded product INFLECTION_GROWTH * x_i, not a rounded
    # power; two spare steps carry the last product past the window
    steps = math.ceil(math.log(INFLECTION_WINDOW / INFLECTION_START, INFLECTION_GROWTH)) + 2
    grid = np.multiply.accumulate(np.r_[INFLECTION_START, np.full(steps, INFLECTION_GROWTH)])
    grid = np.r_[grid[grid < INFLECTION_WINDOW], INFLECTION_WINDOW]
    # past the inflection d2 can overflow at large K/K0; those values only need a sign
    with np.errstate(over="ignore", invalid="ignore"):
        values = d2(grid)
        positive = values > 0
        edges = np.flatnonzero((values[:-1] == 0.0) | (positive[:-1] != positive[1:]))
        if not edges.size:
            raise RuntimeError(
                f"no inflection of the rescaled decay in (0, {INFLECTION_WINDOW}] "
                f"for k0={k0}, k={k}"
            )
        i = edges[0]  # bisect_root returns grid[i] itself where d2 is 0
        numeric_x0 = bisect_root(d2, grid[i], grid[i + 1], xtol=1e-12)

    q = float(r * r)  # (K/K0)^2
    truncated_x0 = math.sqrt(2.0 / (q + q * q))
    return numeric_x0, truncated_x0


# ---------------------------------------------------------------------------
# Magnetized environment
# ---------------------------------------------------------------------------

def magnetized_bloch_trace(alpha, times):
    """Squared Bloch length of the qubit against a fully magnetized chain.

    The initial state (qubit along +x, every chain spin up) lives in the
    span of the vacuum and the single-excitation sector, where the chain
    Hamiltonian acts as the same tridiagonal hopping matrix that drives
    alpha0.  The surviving coherence is alpha0(t) and the excitation
    survival probability alpha0(t)^2, so

        v^2(t) = alpha0^2 + (1 - alpha0^2)^2.

    At every zero of alpha0 the excitation has fully left the qubit and
    the state is again completely polarized (v^2 = 1); the global
    minimum 3/4 sits at alpha0^2 = 1/2.

    alpha is an alpha0 evaluator (see the module docstring), called once
    per :func:`spinwire.numerics.blockwise` block; the array it returns is
    only read.  Returns v^2 at the given times: a float for a float or
    0-d time, else an array of their shape.
    """

    def bloch(ts):
        a = alpha(ts)
        a_sq = a * a
        return a_sq + (1.0 - a_sq) ** 2

    return blockwise(bloch, times)


# ---------------------------------------------------------------------------
# Singlet witness: sudden death and rebirth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessTrace:
    """Correlation-square witness samples and the intervals where it exceeds 1."""

    witness: np.ndarray
    entangled_intervals: tuple[tuple[float, float], ...]
    death_time: float | None
    rebirth_times: tuple[float, ...]

    def __post_init__(self) -> None:
        if np.any(self.witness < 0):
            raise ValueError("witness values must be non-negative")
        for (a0, b0), (a1, b1) in zip(self.entangled_intervals, self.entangled_intervals[1:]):
            if not (a0 <= b0 <= a1 <= b1):
                raise ValueError("entangled intervals must be disjoint and sorted")


def singlet_witness(alpha_a, alpha_b, times) -> WitnessTrace:
    """Evolve a two-qubit singlet, each qubit against its own chain.

    The correlation tensor stays diagonal, diag(-u, -u, -u^2) with
    u = alphaA * alphaB, so the witness (sum of squared entries) is
    W = 2 u^2 + u^4; W > 1 flags entanglement.  W(0) = 3.

    alpha_a and alpha_b are alpha0 evaluators (see the module docstring).
    Equal chains are one evaluator passed twice (alpha_b is alpha_a),
    which is then called once per time.  Interval edges found on the grid
    are refined together by one array bisection.  The grid is the
    caller's resolution contract: intervals narrower than one grid step
    can be missed.  The returned trace holds W at each grid time, not the
    grid itself.  W is computed one :func:`spinwire.numerics.blockwise`
    block at a time, so working memory is W plus O(CHUNK).
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2 or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("need a strictly increasing non-negative time grid")

    def witness_at(t):
        a = alpha_a(t)
        u = a * (a if alpha_b is alpha_a else alpha_b(t))  # equal chains: one call
        u_sq = u * u
        return 2.0 * u_sq + u_sq * u_sq

    w = blockwise(witness_at, times)
    above = w > WITNESS_THRESHOLD  # strict: the criterion is sufficient only

    edges = np.flatnonzero(above[1:] != above[:-1])
    crossings = bisect_root(
        lambda t: witness_at(t) - WITNESS_THRESHOLD,
        times[edges], times[edges + 1], xtol=CROSSING_XTOL,
        f_lo=w[edges] - WITNESS_THRESHOLD, f_hi=w[edges + 1] - WITNESS_THRESHOLD,
    ).tolist()
    # crossings alternate up and down; the grid ends close what they leave open
    bounds = [float(times[0])] + crossings if above[0] else crossings
    open_ended = bool(above[-1])
    if open_ended:
        bounds.append(float(times[-1]))
    intervals = list(zip(bounds[::2], bounds[1::2]))

    death_time = None
    if intervals and not (open_ended and len(intervals) == 1):
        death_time = intervals[0][1]
    rebirth_times = tuple(a for a, _ in intervals[1:])

    return WitnessTrace(
        witness=w,
        entangled_intervals=tuple(intervals),
        death_time=death_time,
        rebirth_times=rebirth_times,
    )


# ---------------------------------------------------------------------------
# Poincare recurrence demo
# ---------------------------------------------------------------------------

def recurrence_demo(
    angular_frequencies, times, threshold: float = 0.9
) -> tuple[np.ndarray, float | None]:
    """Survival probability of a toy system with finitely many frequencies.

    P(t) = (m + sum_i cos(2 w_i t)) / (2 m) for m mutually irrational
    frequencies.  P(0) = 1 and, for incommensurate frequencies, P never
    returns to 1; but with few frequencies it climbs back above any
    threshold soon.  Returns the sampled trace and the first time P
    rises above the threshold from below (the initial window, which
    starts at 1, does not count).
    """
    freqs = np.asarray(list(angular_frequencies), dtype=float)
    if not 2 <= freqs.size <= 8:
        raise ValueError(f"need between 2 and 8 frequencies, got {freqs.size}")
    times = np.asarray(times, dtype=float)
    m = freqs.size
    p = np.empty(times.size)
    first_exceedance = None
    for block in chunks(times.size):
        p[block] = (m + np.cos(2.0 * np.outer(times[block], freqs)).sum(axis=1)) / (2.0 * m)
        if first_exceedance is None:
            lo = max(block.start - 1, 0)  # one sample back, for a crossing at the join
            below = p[lo:block.stop] <= threshold
            crossings = np.flatnonzero(below[:-1] & ~below[1:])
            if crossings.size:
                first_exceedance = float(times[lo + crossings[0] + 1])
    return p, first_exceedance
