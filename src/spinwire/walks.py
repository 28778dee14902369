"""Exact counting of origin-returning walks on the non-negative integers.

An n-step walk (n even) takes unit steps up or down, never leaves the
non-negative integers, and starts and ends at the origin.  Walks are
classified by the number k of times they touch the origin strictly
between start and end.  These counts are the combinatorial backbone of
the auto-fidelity series: each closed loop of the site-0 operator
through the chain contributes one walk, and every interior return to
the origin swaps a wire coupling for a plug coupling.

The closed-form count and an exhaustive depth-first enumeration are
kept side by side so that each can vouch for the other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

# 2^20 step sequences enumerate in well under a second; above that the
# exhaustive oracle stops being useful.
ENUMERATION_CAP = 20


def catalan(m: int) -> int:
    """m-th Catalan number C(2m, m)/(m+1), exact."""
    if m < 0:
        raise ValueError(f"Catalan index must be non-negative, got {m}")
    return math.comb(2 * m, m) // (m + 1)


def _check_step_count(n: int) -> None:
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"step count must be a positive even integer, got {n}")


def walk_count(n: int, k: int) -> int:
    """Walks of n steps from 0 to 0 with exactly k interior origin visits.

    Closed form (k+1) (n-k-2)! / ((n/2-k-1)! (n/2)!), evaluated in exact
    integer arithmetic.  Out-of-range k (negative, or k > n/2 - 1, where
    the formula would need a negative factorial) counts zero walks; that
    convention keeps series built on top of these counts loop-safe.
    """
    _check_step_count(n)
    if k < 0 or n // 2 - k - 1 < 0:
        return 0
    return ((k + 1) * math.factorial(n - k - 2)) // (
        math.factorial(n // 2 - k - 1) * math.factorial(n // 2)
    )


def walk_row(n: int) -> list[int]:
    """[walk_count(n, k) for k in range(n // 2)], without a factorial per entry.

    The row starts at walk_count(n, 0) and steps along k by the exact
    ratio l(n, k+1) / l(n, k) = (k+2)(n/2-k-1) / ((k+1)(n-k-2)); the
    product is a multiple of the divisor, so floor division is exact.
    """
    row = [walk_count(n, 0)]
    half = n // 2
    for k in range(half - 1):
        row.append(row[-1] * (k + 2) * (half - k - 1) // ((k + 1) * (n - k - 2)))
    return row


def enumerate_walks(n: int, cap: int = ENUMERATION_CAP) -> dict[int, int]:
    """Count the same walks by brute force, binned by interior origin visits.

    Depth-first search over all up/down step sequences confined to the
    non-negative integers, independent of the closed form in
    :func:`walk_count`.  Exponential in n, hence the cap.
    """
    _check_step_count(n)
    if n > cap:
        raise ValueError(f"enumeration capped at n = {cap}, got {n}")

    counts: dict[int, int] = {k: 0 for k in range(n // 2)}

    def descend(position: int, steps_done: int, visits: int) -> None:
        remaining = n - steps_done
        if position > remaining:
            return  # cannot come back to the origin in time
        if steps_done == n:
            if position == 0:
                counts[visits] += 1
            return
        if position == 0:
            extra = visits + 1 if steps_done > 0 else visits
            descend(1, steps_done + 1, extra)
        else:
            here = visits
            descend(position + 1, steps_done + 1, here)
            descend(position - 1, steps_done + 1, here)

    # The visit at steps_done > 0 is credited when we stand on 0 and step
    # away; the final return is never credited because the walk ends there.
    descend(0, 0, 0)
    return counts


@dataclass(frozen=True)
class WalkTable:
    """Exact counts keyed by (step count n, interior origin visits k)."""

    entries: dict[tuple[int, int], int]

    @classmethod
    def build(cls, n_max: int, k_max: int | None = None) -> "WalkTable":
        """Tabulate the counts for even n up to n_max, k up to k_max.

        k_max defaults to n_max/2 - 1, the largest k with a nonzero count
        anywhere in the table; smaller n then carry explicit zeros, which
        is the layout the walks CLI table prints.
        """
        _check_step_count(n_max)
        if k_max is None:
            k_max = n_max // 2 - 1
        entries = {}
        for n in range(2, n_max + 1, 2):
            row = walk_row(n)
            for k in range(k_max + 1):
                entries[(n, k)] = row[k] if k < len(row) else 0
        return cls(entries)

    def row(self, n: int) -> dict[int, int]:
        """Counts for one step count, as a k -> count map; {} for an absent n.

        A table holds k = 0, 1, ... up to k_max for every n it has, so the
        row is read key by key up to the first missing k.
        """
        row = {}
        for k in itertools.count():
            if (n, k) not in self.entries:
                return row
            row[k] = self.entries[(n, k)]
