"""CSV rows of float64 values, byte for byte what ``%.17g`` gives, in bulk.

Python's ``'%.17g' % x`` takes dtoa's bignum path for every value, since
17 digits is past its 14-digit fast path.  Here whole blocks are
converted with numpy float64 and int64 operations instead, after the
idea of Ryu printf (Adams, PLDI 2019):

1. the decimal exponent e is guessed from log10;
2. |x| * 10**(16 - e) is formed in double-double arithmetic, from a
   table of exact (hi, lo) splits of the powers of ten and Dekker's
   exact product (no fused multiply-add);
3. e is corrected by one step where that value falls outside
   [10**16, 10**17), and the value is rounded to a 17-digit integer; a
   carry to 10**17 becomes 10**16 with e + 1;
4. the digits come four at a time from a table, after integer division;
5. each value is laid out in %g form in six 64-bit words, NUL wherever
   %g prints nothing, and the NULs are deleted once per block.

The double-double value is within about 1e-14 of the exact scaled
value, so its rounding is certain unless the fraction lies within
TIE_MARGIN of one half, as every exact tie does.  Such values, and
non-finite ones and those outside [LOW, HIGH], where the table or the
exact product could leave float64's normal range, are formatted by
``%`` itself.  Zeros stay on the array path.
"""

from __future__ import annotations

import functools

import numpy as np

FORMAT = "%.17g"
DIGITS = 17
TIE_MARGIN = 2.0 ** -30
LOW, HIGH = 1e-250, 1e250
# 10**k for every k = 16 - e that a value in [LOW, HIGH] can need, e corrected by one step
K_MIN, K_MAX = -240, 270
SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for float64

# A value is laid out in six words, each read low byte first:
#   0: NUL, sign, the "0.000" before a fixed-notation value below 1, digit d0
#   1, 2: the digits d1..d8 and d9..d16 before the point, and the point
#   3, 4: the digits d1..d8 and d9..d16 after the point
#   5: "e+308" in scientific notation, then the separator
WORDS = 6
_QUAD = np.arange(10 ** 4)
# The four characters of 0000..9999, and how many trailing zeros each has
_QUADS = sum((ord("0") + _QUAD // 10 ** (3 - i) % 10).astype(np.uint64) << np.uint64(8 * i)
             for i in range(4))
_QUAD_ZEROS = np.select([_QUAD % 10 ** k != 0 for k in range(1, 5)], [0, 1, 2, 3], 4)
_LEAD = np.array([int.from_bytes(b"\0\0" + b"0.000"[:k], "little") for k in range(6)],
                 dtype=np.uint64)
# Bytes of words 1 and 2 (or 3 and 4) that hold the first k digits, k = 0..17
_SHOW = np.array([[(1 << 8 * min(max(k - first, 0), 8)) - 1 for k in range(DIGITS + 1)]
                  for first in (1, 9)], dtype=np.uint64)
# The point after the first k digits, k = 1..16, in words 1 and 2; k = 0 is none
_POINT = np.array([[ord(".") << 8 * (k - first) if first <= k < first + 8 else 0
                    for k in range(DIGITS)] for first in (1, 9)], dtype=np.uint64)
_SEPARATOR = 40  # bit offset of the separator in word 5


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hi_hi, hi_lo, lo) for k = K_MIN..K_MAX: hi = hi_hi + hi_lo is 10**k
    rounded to float64 and split for Dekker's product; lo is 10**k - hi, rounded."""
    table = np.empty((3, K_MAX - K_MIN + 1))
    for i, k in enumerate(range(K_MIN, K_MAX + 1)):
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            den = 10 ** -k
            hi = 1 / den  # int true division rounds correctly
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (den * two)
        c = SPLIT * hi
        hi_hi = c - (c - hi)
        table[:, i] = hi_hi, hi - hi_hi, lo
    return tuple(table)


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(whole, frac): the integer part and the fraction of ax * 10**(16 - e)."""
    hi_hi, hi_lo, lo = (row[16 - K_MIN - e] for row in _powers_of_ten())
    p = ax * (hi_hi + hi_lo)
    c = SPLIT * ax
    ax_hi = c - (c - ax)
    ax_lo = ax - ax_hi
    t = (((ax_hi * hi_hi - p) + ax_hi * hi_lo + ax_lo * hi_hi) + ax_lo * hi_lo) + ax * lo
    # p >= 2**52 is an integer; a smaller p means ax * 10**(16 - e) < 10**16, which is redone
    floor = np.floor(t)
    return p.astype(np.int64) + floor.astype(np.int64), t - floor


def format_rows(values: np.ndarray) -> str:
    """CSV text of a 2-d float64 array, one line per row: the same string as
    ``((",".join(["%.17g"] * cols) + "\\n") * rows) % tuple(values.ravel())``."""
    rows, cols = values.shape
    x = np.ascontiguousarray(values, dtype=float).ravel()
    ax = np.abs(x)
    fast = (ax >= LOW) & (ax <= HIGH)  # False for nan and inf
    zero = ax == 0.0
    ax = np.where(fast, ax, 1.0)  # a zero is laid out as 1, then its digit is changed
    e = np.floor(np.log10(ax)).astype(np.int64)
    whole, frac = _scaled(ax, e)
    redo = (whole < 10 ** 16) | (whole >= 10 ** 17)
    if redo.any():
        e[redo] += np.where(whole[redo] < 10 ** 16, -1, 1)
        whole[redo], frac[redo] = _scaled(ax[redo], e[redo])
    slow = np.flatnonzero(~(fast | zero) | (np.abs(frac - 0.5) < TIE_MARGIN)
                          | (whole < 10 ** 16) | (whole >= 10 ** 17))
    n = whole + (frac > 0.5)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e[carry] += 1

    # d0, then d1..d16 as four quads, most significant first
    high = n // 10 ** 8
    d0 = high // 10 ** 8
    quads = []
    for part in (high - d0 * 10 ** 8, n - high * 10 ** 8):
        first = part // 10 ** 4
        quads += [first, part - first * 10 ** 4]
    trailing = np.zeros(n.size, dtype=np.int64)
    for quad in quads:
        trailing = np.where(quad == 0, trailing + 4, _QUAD_ZEROS[quad])

    fixed = (e >= -4) & (e < DIGITS)
    below_one = fixed & (e < 0)
    point = np.where(fixed, np.maximum(e, 0), 0)  # the point follows digit d[point]
    shown = DIGITS - np.minimum(trailing, DIGITS - 1 - point)
    before = np.where(below_one, shown, point + 1)  # digits before the point
    dot = np.where(shown > before, before, 0)

    field = np.empty((n.size, WORDS), dtype="<u8")
    field[:, 0] = (_LEAD[np.where(below_one, 1 - e, 0)]
                   | np.signbit(x).astype(np.uint64) * np.uint64(ord("-") << 8)
                   | (ord("0") + d0 - zero).astype(np.uint64) << np.uint64(56))
    for i in range(2):
        word = _QUADS[quads[2 * i]] | _QUADS[quads[2 * i + 1]] << np.uint64(32)
        field[:, 1 + i] = word & _SHOW[i][before] | _POINT[i][dot]
        field[:, 3 + i] = word & (_SHOW[i][shown] ^ _SHOW[i][before])
    mag = np.abs(e)
    hundreds = mag // 100
    exponent = (ord("e") | (ord("+") + 2 * (e < 0)) << 8  # "-" follows "+" in ASCII
                | (hundreds > 0) * (ord("0") + hundreds) << 16).astype(np.uint64)
    # the last two characters of the quad, so at least two exponent digits
    exponent |= _QUADS[mag - 100 * hundreds] >> np.uint64(16) << np.uint64(24)
    field[:, 5] = ~fixed * exponent | np.uint64(ord(",") << _SEPARATOR)
    field.reshape(rows, cols, WORDS)[:, -1, 5] ^= np.uint64((ord(",") ^ ord("\n")) << _SEPARATOR)

    text = field.view(np.uint8).reshape(n.size, 8 * WORDS)
    if slow.size:
        room = 8 * (WORDS - 1) + _SEPARATOR // 8  # every byte before the separator
        exact = b"".join((FORMAT % value).encode().ljust(room, b"\0") for value in x[slow].tolist())
        text[slow, :room] = np.frombuffer(exact, dtype=np.uint8).reshape(-1, room)
    return text.tobytes().translate(None, b"\0").decode("ascii")
