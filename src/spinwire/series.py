"""Exact power series for the auto-fidelity of the observed qubit.

The overlap alpha0(t) of the evolved site-0 operator with its initial
self is even in time, with Maclaurin coefficients that are finite sums
of walk counts weighted by powers of the two couplings:

    alpha0(t) = 1 + sum_{j>=1} (-1)^j t^(2j) / (2j)! *
                sum_{k=0}^{j-1} l(2j, k) * K0^(2(k+1)) * K^(2(j-k-1))

where l(n, k) counts n-step non-negative walks through the origin k
interior times.  Each interior origin visit trades a pair of wire hops
for a pair of plug hops, which is where the K0/K bookkeeping comes
from.  The same coefficient also has a terminating Gauss-hypergeometric
form, implemented independently as a cross-check.

Coefficients are exact rationals end to end, summed in integers: with
p = K0^2 = P/D and q = K^2 = Q/D over the common denominator D, the
t^(2j) coefficient is (-1)^j N_j / (D^j (2j)!) with the integer
numerator N_j = sum_k l(2j, k) P^(k+1) Q^(j-k-1).  The walks are never
summed one count at a time: cutting each walk at its returns to the
origin (first-return decomposition, Flajolet & Sedgewick, Analytic
Combinatorics, ch. V) gives, from N_0 = 1 and with
w_j = P C_(j-1) Q^(j-1),

    N_j = w_j + P (w_j - P N_(j-1)) / (Q - P),

C the Catalan numbers, an exact division; for P = Q a row of walk
counts sums to C_j and N_j = P^j C_j = w_j (4j - 2) / (j + 1).  That
is O(order) big-integer operations, where a Horner sum over the rows of
:func:`spinwire.walks.walk_rows` takes O(order^2); the tests keep that
sum as the reference the recurrence must equal.  Inside
the package the coefficients stay unreduced (numerator, denominator)
integer pairs, from :func:`_series_pairs`: every consumer reads only the
rational value, through n / d (correctly rounded, so the bits of
float(Fraction(n, d))) or a floor division, and needs no gcd.  The
public :func:`build_series` reduces each pair once, to a Fraction.
Floating point enters only when a series is evaluated at a concrete
time, so cancellation is confined to the final sum and reported through
an error estimate; the alternating series is trustworthy roughly while
the last retained term is small.  :func:`evaluate_series` walks a float
or an array of times with :func:`spinwire.numerics.blockwise`.  It, chi
and the inflection point share one order rule, :func:`_check_order`: a
series is built to order 2 at least.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .numerics import blockwise, libm

DEFAULT_ORDER = 20

RationalLike = Rational | int | float


def _as_fraction(value: RationalLike, name: str) -> Fraction:
    # Fraction(float) is exact: a float is a binary rational.  nan raises
    # ValueError and the infinities OverflowError.
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a rational number, got {value!r}") from exc


def hypergeometric_coefficient(
    j: int, ratio_sq: RationalLike, k_sq: RationalLike = 1
) -> Fraction:
    """Same coefficient via the terminating 2F1(1-j, 2; 2-2j; z) sum.

    z = ratio_sq = (K0/K)^2, and the prefactor is
    (-1)^j K^(2j)/(2j)! * z * (2j-2)! / ((j-1)! j!).  Equals
    build_series(z * k_sq, k_sq, j)[j] as an exact rational; the two
    routes share no code beyond Fraction arithmetic.

    j = 0 is rejected: the prefactor has (j-1)! and the constant term 1
    belongs to build_series.
    """
    if j < 1:
        raise ValueError(f"hypergeometric form needs j >= 1, got {j}")
    z = _as_fraction(ratio_sq, "ratio_sq")
    if z <= 0:
        raise ValueError(f"ratio_sq must be positive, got {ratio_sq!r}")
    ksq = _as_fraction(k_sq, "k_sq")

    # Terminating sum: (1-j)_s kills everything from s = j on, and the
    # denominator Pochhammer (2-2j)_s never crosses zero before that.
    total = Fraction(0)
    term = Fraction(1)
    for s in range(j):
        if s > 0:
            term *= Fraction((-j + s) * (s + 1), (1 - 2 * j + s) * s) * z
        total += term

    prefactor = (
        Fraction((-1) ** j)
        * ksq**j
        * z
        * Fraction(math.factorial(2 * j - 2), math.factorial(2 * j))
        / (math.factorial(j - 1) * math.factorial(j))
    )
    return prefactor * total


def build_series(
    k0_sq: RationalLike, k_sq: RationalLike, order: int = DEFAULT_ORDER
) -> tuple[Fraction, ...]:
    """Exact coefficients (c_0, .., c_order), c_j multiplying t^(2j)."""
    return tuple(Fraction(n, d) for n, d in _series_pairs(k0_sq, k_sq, order))


def _series_pairs(
    k0_sq: RationalLike, k_sq: RationalLike, order: int
) -> list[tuple[int, int]]:
    """The coefficients of build_series as unreduced (numerator, denominator) pairs.

    c_j = n_j / d_j exactly, with d_j = D^j (2j)! > 0, and n_j = (-1)^j N_j
    from the first-return recurrence of the module docstring.
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    p = _as_fraction(k0_sq, "k0_sq")
    q = _as_fraction(k_sq, "k_sq")
    if p < 0 or q < 0:
        raise ValueError("squared couplings must be non-negative")
    d = math.lcm(p.denominator, q.denominator)
    big_p = p.numerator * (d // p.denominator)
    big_q = q.numerator * (d // q.denominator)
    pairs = [(1, 1)]
    denominator = 1  # D^j (2j)!
    catalan, q_power, numerator = 1, 1, 1  # C_(j-1), Q^(j-1), N_(j-1)
    for j in range(1, order + 1):
        denominator *= d * (2 * j - 1) * (2 * j)
        w = big_p * catalan * q_power
        if big_p == big_q:
            numerator = w * (4 * j - 2) // (j + 1)  # P^j C_j: a row of walk counts sums to C_j
        else:
            numerator = w + big_p * (w - big_p * numerator) // (big_q - big_p)  # an exact division
        pairs.append((-numerator if j % 2 else numerator, denominator))
        catalan = catalan * (4 * j - 2) // (j + 1)
        q_power *= big_q
    return pairs


def horner(coeffs, u):
    """sum_j coeffs[j] * u**j by Horner's rule, for a float u or elementwise on an array."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _check_order(order: int) -> None:
    """The one order rule of every series evaluation, chi and the inflection point."""
    if order < 2:
        raise ValueError(f"series must be built to order >= 2, got {order}")


def evaluate_series(coeffs, t):
    """Evaluate the series with coefficients c_0 .. c_M at time t, a float or an array.

    The coefficients are floats or Fractions; the order M is
    len(coeffs) - 1.  Horner in t^2 on the coefficients, converted to
    floats once per call.  The error estimate
    is twice the magnitude of the last retained term, a heuristic bound
    for the alternating tail; the caller decides whether that is good
    enough.  Outside the window where the estimate is small the
    truncated polynomial is not a meaningful value of alpha0.  Rounding
    in the alternating sum, about eps * sum_j |c_j| t^(2j), is not in the
    estimate and can swamp it (README.md shows a case).

    t is a float or an array, walked by :func:`spinwire.numerics.blockwise`
    for the values and again for the errors; every element has the bits
    of a float call, the error term 2 (|c_M| (t t)^M) from libm (numpy's
    power differs in the last bit on some inputs).  An error term past
    the float range, t t and the power included, raises OverflowError.
    """
    order = len(coeffs) - 1
    _check_order(order)
    floats = [float(c) for c in coeffs]
    tail = abs(floats[-1])

    def tail_terms(ts):
        # each term in Python floats, with the IEEE products numpy takes: pow raises
        # OverflowError itself but passes on an inf t t, and the products overflow
        # to inf silently (or give 0 * inf = NaN); a NaN time keeps its NaN term
        terms = libm(lambda v: 2.0 * (tail * (v * v) ** order), ts)
        if not (terms[ts == ts] < math.inf).all():
            raise OverflowError
        return terms

    # errors first: an overflowing error term raises before Horner warns of the overflow
    try:
        errors = blockwise(tail_terms, t)
    except OverflowError as exc:
        raise OverflowError(f"series tail power t**{2 * order} overflows a float") from exc
    return blockwise(lambda ts: horner(floats, ts * ts), t), errors


def alpha_z(alpha_x: float) -> float:
    """Z-autocorrelation from the X one: the Z overlap is the square."""
    return alpha_x * alpha_x
