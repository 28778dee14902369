"""Exact counting of origin-returning walks on the non-negative integers.

An n-step walk (n even) takes unit steps up or down, never leaves the
non-negative integers, and starts and ends at the origin.  Walks are
classified by the number k of times they touch the origin strictly
between start and end.  These counts are the combinatorial backbone of
the auto-fidelity series: each closed loop of the site-0 operator
through the chain contributes one walk, and every interior return to
the origin swaps a wire coupling for a plug coupling.

The closed-form count and an exhaustive depth-first enumeration are
kept side by side so that each can vouch for the other.  Whole rows of
counts, which the CLI table and every series build read, come from
:func:`walk_rows`: each row from the one before by suffix sums, one
big-int addition per entry, with neither of the two oracles.
"""

from __future__ import annotations

import math
from itertools import accumulate

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


def walk_rows(n_max: int):
    """The rows [l(n, 0), .., l(n, n/2 - 1)] for n = 2, 4, .., n_max, in turn.

    Row n comes from row n - 2 by its suffix sums S_i = sum_{i' >= i}
    l(n - 2, i'), as [S_0, S_0, S_1, .., S_(n/2 - 2)]: the ballot-number
    recurrence D(h, j) = D(h - 1, j - 1) + D(h, j + 1), one big-int
    addition per entry.  A generator, so only one row is alive at a
    time; each row is a new list.  n_max is checked on the call.
    """
    _check_step_count(n_max)

    def rows():
        row = [1]
        yield row
        for _ in range(4, n_max + 1, 2):
            row = list(accumulate(reversed(row)))  # S_(n/2-2), .., S_0
            row.append(row[-1])
            row.reverse()
            yield row

    return rows()


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

