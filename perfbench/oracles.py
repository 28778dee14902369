"""Independent reference values for every spinwire CLI output.

Nothing here imports spinwire.  Each check re-derives what a CSV must
hold from the command line alone:

* alpha0 at K0 = sqrt(2) K and K0 = K from scipy.special.j0 / j1, and at
  generic couplings from a Chebyshev (Jacobi-Anger) expansion whose
  moments are taken on the *untruncated* chain, so it has no truncation
  error at all (Tal-Ezer & Kosloff 1984);
* series coefficients from exact integer moments of the hopping matrix,
  not from walk counts;
* chi from the closed form A + B e^-1 + C e^-2 with exact rationals
  A, B, C, evaluated in 300-digit decimal arithmetic;
* walk counts from the ballot-number formula and Catalan row sums;
* the recurrence trace recomputed with numpy.

``check_call`` returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
import math
import os
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import scipy.special

ALPHA_TOL = 1e-9  # the three-route agreement contract
EDGE_TOL = 1e-6  # witness at a bisected interval edge (xtol 1e-9 in t)
CHI_RTOL = 1e-6  # the CLI integrates by adaptive Simpson; this is exact
SERIES_WINDOW = 1e-10  # rows whose series tail estimate is below this are checked
MAX_SAMPLED_ROWS = 64
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Reference alpha0
# ---------------------------------------------------------------------------

def special_case(k0: float, k: float) -> str | None:
    """Mirror of the closed-form ratio match, on the same 1e-12 tolerance."""
    if k == 0:
        return "wire_off"
    if abs(k0 - SQRT2 * k) <= 1e-12 * k0:
        return "sqrt2"
    if abs(k0 - k) <= 1e-12 * k0:
        return "equal"
    return None


def alpha_bessel(case: str, k0: float, k: float, times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if case == "wire_off":
        return np.cos(k0 * times)
    if case == "sqrt2":
        return scipy.special.j0(2.0 * k * times)
    y = k * times
    safe = np.where(y == 0.0, 1.0, y)
    return np.where(y == 0.0, 1.0, scipy.special.j1(2.0 * safe) / safe)


def alpha_chebyshev(k0: float, k: float, times) -> np.ndarray:
    """alpha0(t) = J0(at) + 2 sum_j (-1)^j J_2j(at) <e0|T_2j(h/a)|e0>.

    a bounds the spectral radius of h (Gershgorin).  T_j(h/a) e0 is
    supported on sites 0..j, so the vector below never reaches its end:
    the moments are those of the semi-infinite chain.
    """
    times = np.asarray(times, dtype=float)
    a = max(k0 + k, 2.0 * k)
    if a == 0.0:
        return np.ones_like(times)
    x_max = a * float(times.max(initial=0.0))
    n_even = int(x_max + 10.0 * x_max ** (1.0 / 3.0) + 40.0) // 2 + 1
    off = np.full(n_even + 1, k / a)
    off[0] = k0 / a

    def apply(v):
        out = np.zeros_like(v)
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    v_prev = np.zeros(n_even + 2)
    v_prev[0] = 1.0
    v = apply(v_prev)
    moments = [1.0]
    for _ in range(1, n_even):
        moments.append(2.0 * float(v @ v) - 1.0)  # T_2j = 2 T_j^2 - 1
        v_prev, v = v, 2.0 * apply(v) - v_prev
    moments = np.array(moments)
    weights = 2.0 * moments * (-1.0) ** np.arange(n_even)
    weights[0] = 1.0
    orders = 2.0 * np.arange(n_even)
    table = scipy.special.jv(orders[:, None], a * times[None, :])
    return weights @ table


def alpha_reference(k0: float, k: float, times) -> np.ndarray:
    case = special_case(k0, k)
    if case is not None:
        return alpha_bessel(case, k0, k, times)
    return alpha_chebyshev(k0, k, times)


# ---------------------------------------------------------------------------
# Exact series data and chi
# ---------------------------------------------------------------------------

def even_moments(k0_sq: Fraction, k_sq: Fraction, order: int) -> list[Fraction]:
    """<e0|h^(2j)|e0> for j = 0..order, exactly.

    Uses the similar matrix with 1 on the superdiagonal and the squared
    couplings below it, in integers over a common power-of-two scale.
    """
    scale = math.lcm(k0_sq.denominator, k_sq.denominator)
    b0 = k0_sq.numerator * (scale // k0_sq.denominator)
    b = k_sq.numerator * (scale // k_sq.denominator)
    size = order + 2
    u = [0] * (size + 1)
    u[0] = 1
    moments = [Fraction(1)]
    for step in range(1, 2 * order + 1):
        nxt = [0] * (size + 1)
        for i in range(min(step + 1, size)):
            below = u[i - 1] * (b0 if i == 1 else b) if i >= 1 else 0
            nxt[i] = scale * u[i + 1] + below
        u = nxt
        if step % 2 == 0:
            moments.append(Fraction(u[0], scale**step))
    return moments


def series_coefficients(k0_sq: Fraction, k_sq: Fraction, order: int) -> list[Fraction]:
    """Exact Maclaurin coefficients of alpha0 in t^(2j)."""
    return [
        (-1) ** j * mu / math.factorial(2 * j)
        for j, mu in enumerate(even_moments(k0_sq, k_sq, order))
    ]


def chi_exact(ratio: float, order: int) -> float:
    """Integral over [0, 1] of (P(x) - exp(-x))^2 for the order-`order` series.

    With integer M_n = sum_{i<=n} n!/i!, the integral of x^n e^-x over
    [0, 1] is n! - M_n e^-1, so chi = A + B e^-1 + C e^-2 exactly.
    """
    r = Fraction(ratio)
    moments = even_moments(r * r, r**4, order)
    coeffs = [(-1) ** j * mu / math.factorial(2 * j) for j, mu in enumerate(moments)]
    # Integral of P^2 over a common denominator: integer products only.
    denom = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (denom // c.denominator) for c in coeffs]
    odd = math.lcm(*range(1, 4 * order + 2, 2))
    total = sum(
        ci * cj * (odd // (2 * (i + j) + 1))
        for i, ci in enumerate(nums)
        for j, cj in enumerate(nums)
    )
    p_sq = Fraction(total, odd * denom * denom)
    a_part = p_sq - 2 * sum((-1) ** j * mu for j, mu in enumerate(moments)) + Fraction(1, 2)
    b_part = 2 * coeffs[0]  # M_0 = 1
    m_n = 1
    for n in range(1, 2 * order + 1):
        m_n = n * m_n + 1
        if n % 2 == 0:
            b_part += 2 * coeffs[n // 2] * m_n
    with localcontext() as ctx:
        ctx.prec = 300
        e_inv = Decimal(-1).exp()

        def dec(q: Fraction) -> Decimal:
            return Decimal(q.numerator) / Decimal(q.denominator)

        return float(dec(a_part) + dec(b_part) * e_inv - e_inv * e_inv / 2)


# ---------------------------------------------------------------------------
# Walk counts
# ---------------------------------------------------------------------------

def walk_count_ballot(n: int, k: int) -> int:
    """Dyck paths of semilength n/2 touching zero exactly k+1 times after the start."""
    m, j = n // 2, k + 1
    if j > m:
        return 0
    return j * math.comb(2 * m - j, m) // (2 * m - j)


def catalan_numbers(count: int) -> list[int]:
    out = [1]
    for m in range(count):
        out.append(out[-1] * 2 * (2 * m + 1) // (m + 2))
    return out


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def parse_argv(argv) -> tuple[str, dict[str, str]]:
    command, rest = argv[0], argv[1:]
    flags = {rest[i].lstrip("-").replace("-", "_"): rest[i + 1] for i in range(0, len(rest), 2)}
    return command, flags


def read_csv(path: str) -> tuple[list[str], str, list[str]]:
    """(comment lines, header, data lines) of a CLI output file."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    return comments, body[0], body[1:]


def numeric_columns(rows: list[str], width: int) -> np.ndarray:
    data = np.array([float(x) for row in rows for x in row.split(",")])
    return data.reshape(-1, width)


def sample_rows(n: int, among=None) -> np.ndarray:
    idx = np.arange(n) if among is None else np.asarray(among)
    if idx.size <= MAX_SAMPLED_ROWS:
        return idx
    pick = np.linspace(0, idx.size - 1, MAX_SAMPLED_ROWS).round().astype(int)
    return idx[np.unique(pick)]


def _close(label, got, want, tol, problems) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
    if not err <= tol:
        problems.append(f"{label}: max deviation {err:.3g} exceeds {tol:.3g}")


def _check_grid(t, flags, problems) -> None:
    want = np.linspace(0.0, float(flags["tmax"]), int(flags["steps"]))
    if t.shape != want.shape or not np.array_equal(t, want):
        problems.append("time column is not the requested grid")


def _n_sites(comments) -> int | None:
    for line in comments:
        if line.startswith("# n_sites="):
            return int(line.split("=", 1)[1])
    return None


def check_walks(flags, path, problems) -> None:
    comments, header, rows = read_csv(path)
    if header != "n,k,count":
        problems.append(f"walks header {header!r}")
        return
    n_max = int(flags["n_max"])
    got = {}
    for row in rows:
        n, k, count = (int(x) for x in row.split(","))
        got[(n, k)] = count
    keys = [(n, k) for n in range(2, n_max + 1, 2) for k in range(n_max // 2)]
    if sorted(got) != keys:
        problems.append("walks table does not cover the requested (n, k) range")
        return
    catalan = catalan_numbers(n_max // 2)
    for n in range(2, n_max + 1, 2):
        if sum(got[(n, k)] for k in range(n_max // 2)) != catalan[n // 2]:
            problems.append(f"walks row n={n} does not sum to Catalan({n // 2})")
            return
    bad = [key for key in keys if got[key] != walk_count_ballot(*key)]
    if bad:
        problems.append(f"walks: {len(bad)} counts differ from the ballot formula, first {bad[0]}")


def check_alpha(flags, path, problems) -> None:
    comments, header, rows = read_csv(path)
    if header != "t,alpha0,alphaZ,error_estimate":
        problems.append(f"alpha header {header!r}")
        return
    data = numeric_columns(rows, 4)
    t, a0, az, err = data.T
    _check_grid(t, flags, problems)
    if not np.array_equal(az, a0 * a0):
        problems.append("alphaZ is not alpha0 squared")
    method = flags.get("method", "matrix")
    k0, k = float(flags.get("k0", 1.0)), float(flags.get("k", 1.0))
    case = special_case(k0, k)
    if method == "closed":
        if case is None or np.any(err != 0.0):
            problems.append("closed form: generic ratio or nonzero error estimate")
            return
        _close("closed vs scipy", a0, alpha_bessel(case, k0, k, t), ALPHA_TOL, problems)
    elif method == "matrix":
        tol = float(flags.get("tol", 1e-10))
        if "n_sites" not in flags and not _n_sites(comments):
            problems.append("matrix: missing # n_sites comment")
        if np.any(err != err[0]) or not 0.0 <= err[0] < tol:
            problems.append(f"matrix: error estimate {err[0]!r} not a constant below tol")
        rows_ = np.arange(t.size) if case else sample_rows(t.size)
        _close("matrix vs reference", a0[rows_], alpha_reference(k0, k, t[rows_]), ALPHA_TOL, problems)
    else:
        order = int(flags["order"])
        coeffs = series_coefficients(Fraction(k0) ** 2, Fraction(k) ** 2, order)
        want_err = 2.0 * abs(float(coeffs[-1])) * (t * t) ** order
        if not np.allclose(err, want_err, rtol=1e-9, atol=1e-300):  # denormals
            problems.append("series: error estimate is not twice the last exact term")
        # The printed value is the float Horner sum of the exact polynomial:
        # rounding error only, on every sampled row, inside the window or not.
        rows_ = sample_rows(t.size)
        for i in rows_:
            terms = [float(c) * float(t[i]) ** (2 * j) for j, c in enumerate(coeffs)]
            scale = math.fsum(abs(x) for x in terms)
            if not abs(a0[i] - math.fsum(terms)) <= 1e-13 + 4 * (order + 1) * 2.0**-52 * scale:
                problems.append(f"series: row t={t[i]!r} is not the order-{order} polynomial")
                break
        inside = np.flatnonzero(err <= SERIES_WINDOW)
        if inside.size == 0:
            problems.append("series: no row inside the convergence window")
            return
        rows_ = sample_rows(t.size, inside)
        _close("series vs reference", a0[rows_], alpha_reference(k0, k, t[rows_]), ALPHA_TOL, problems)


def check_chi(flags, path, problems) -> None:
    _, header, rows = read_csv(path)
    if header != "ratio,chi,log_chi":
        problems.append(f"chi-scan header {header!r}")
        return
    ratios = [float(x) for x in flags["ratios"].split(",")]
    data = numeric_columns(rows, 3)
    if data.shape[0] != len(ratios) or list(data[:, 0]) != ratios:
        problems.append("chi-scan ratios do not echo the request")
        return
    order = int(flags.get("order", 20))
    for ratio, chi, log_chi in data:
        want = chi_exact(ratio, order)
        if not abs(chi - want) <= CHI_RTOL * abs(want):
            problems.append(f"chi({ratio}, order {order}) = {chi!r}, exact {want!r}")
        if log_chi != math.log(chi):
            problems.append(f"log_chi at ratio {ratio} is not log(chi)")


def check_bloch(flags, path, problems) -> None:
    comments, header, rows = read_csv(path)
    if header != "t,v_sq" or _n_sites(comments) is None:
        problems.append("bloch: bad header or missing # n_sites")
        return
    t, v_sq = numeric_columns(rows, 2).T
    _check_grid(t, flags, problems)
    rows_ = sample_rows(t.size)
    a = alpha_reference(float(flags["k0"]), float(flags["k"]), t[rows_])
    _close("bloch vs reference", v_sq[rows_], a * a + (1.0 - a * a) ** 2, ALPHA_TOL, problems)


def _witness_reference(flags, times):
    a = alpha_reference(float(flags["k0a"]), float(flags["ka"]), times)
    b = alpha_reference(float(flags["k0b"]), float(flags["kb"]), times)
    u_sq = (a * b) ** 2
    return 2.0 * u_sq + u_sq * u_sq


def check_witness(flags, path, problems) -> None:
    _, header, rows = read_csv(path)
    if header != "t,witness":
        problems.append(f"witness header {header!r}")
        return
    t, w = numeric_columns(rows, 2).T
    _check_grid(t, flags, problems)
    rows_ = sample_rows(t.size)
    _close("witness vs reference", w[rows_], _witness_reference(flags, t[rows_]), ALPHA_TOL, problems)
    with open(path + ".json", encoding="utf-8") as handle:
        sidecar = json.load(handle)
    intervals = sidecar["intervals"]
    edges = [x for pair in intervals for x in pair if 0.0 < x < t[-1]]
    flat = [x for pair in intervals for x in pair]
    if flat != sorted(flat):
        problems.append("witness intervals are not sorted and disjoint")
    if edges:
        _close("witness at interval edges", _witness_reference(flags, np.array(edges)), 1.0, EDGE_TOL, problems)
    if sidecar["rebirth_times"] != [pair[0] for pair in intervals[1:]]:
        problems.append("witness rebirth times are not the later interval starts")


def check_recurrence(flags, path, problems) -> None:
    comments, header, rows = read_csv(path)
    if header != "t,p":
        problems.append(f"recurrence header {header!r}")
        return
    t, p = numeric_columns(rows, 2).T
    _check_grid(t, flags, problems)
    freqs = np.array([float(x) for x in flags["freqs"].split(",")])
    want = (freqs.size + np.cos(2.0 * np.outer(t, freqs)).sum(axis=1)) / (2.0 * freqs.size)
    _close("recurrence vs numpy", p, want, 1e-12, problems)
    threshold = float(flags["threshold"])
    rises = np.flatnonzero((want[:-1] <= threshold) & (want[1:] > threshold))
    stated = [float(c.split("=", 1)[1]) for c in comments if c.startswith("# first_exceedance=")]
    expected = [float(t[rises[0] + 1])] if rises.size else []
    if stated != expected:
        problems.append(f"first exceedance {stated} but numpy gives {expected}")


def check_plot(path: str, n_points: int, problems) -> None:
    with open(path, encoding="utf-8") as handle:
        svg = handle.read()
    points = svg.split('points="', 1)[1].split('"', 1)[0].split() if 'points="' in svg else []
    if not svg.startswith("<svg") or len(points) != n_points:
        problems.append(f"plot {os.path.basename(path)}: {len(points)} points, expected {n_points}")


CHECKS = {
    "walks": check_walks,
    "alpha": check_alpha,
    "chi-scan": check_chi,
    "bloch": check_bloch,
    "witness": check_witness,
    "recurrence": check_recurrence,
}


def check_call(argv, out: str, plot: str | None) -> list[str]:
    """Problems with one finished call's files; empty when all checks pass."""
    problems: list[str] = []
    command, flags = parse_argv(list(argv))
    CHECKS[command](flags, out, problems)
    if plot is not None and not problems:
        _, _, rows = read_csv(out)
        check_plot(plot, len(rows), problems)
    return problems
