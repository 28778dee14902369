"""Float64 values as text in bulk: CSV rows byte for byte what ``%.17g``
gives, and SVG coordinates byte for byte what ``%.2f`` gives.

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
4. the digits d1..d16 come four at a time from a table, after integer
   division, and d0 alone; trailing zeros are counted on the last four
   digits, and on the others only where those are all 0;
5. each value is laid out in %g form in four 64-bit words, NUL wherever
   %g prints nothing, and the NULs are deleted once per block.  One
   table column, chosen by the notation and the count of trailing
   zeros, holds the masks that drop the trailing zeros and move the
   digits after the point up one byte, the point itself and the "0.000"
   before a value below 1.  Only values in scientific notation get an
   exponent.

The double-double value is within about 1e-14 of the exact scaled
value, so its rounding is certain unless the fraction lies within
TIE_MARGIN of one half, as every exact tie does.  Such values, and
non-finite ones and those outside [LOW, HIGH], where the table or the
exact product could leave float64's normal range, are formatted by
``%`` itself.  Zeros stay on the array path.

``format_points`` writes each SVG coordinate as ``%.2f`` in one 64-bit
word: the integer part with its leading zeros NUL, the point, two
decimals and the separator.  Dekker's product gives x * 100 exactly as
hi + lo; ``np.rint`` rounds hi half to even, and lo, at most half an
ulp of hi, can change that only where hi lies exactly half way, which
is corrected.  Values outside [0, POINTS_HIGH), those that round up to
it, -0.0 and non-finite ones are formatted by ``%`` and spliced in.
"""

from __future__ import annotations

import functools

import numpy as np

from .numerics import split

FORMAT = "%.17g"
DIGITS = 17
TIE_MARGIN = 2.0 ** -30
LOW, HIGH = 1e-250, 1e250
# 10**k for every k = 16 - e that a value in [LOW, HIGH] can need, e corrected by one step
K_MIN, K_MAX = -240, 270

# A value is laid out in four words, each read low byte first:
#   0: NUL, sign, the "0.000" before a fixed-notation value below 1, digit d0
#   1, 2, 3: the digits d1..d16 with the point, if any, inserted (17 bytes),
#      then "e+308" in scientific notation, and the separator in the last byte
WORDS = 4
_SEPARATOR = 56  # bit offset of the separator in word 3, its last byte
_EXPONENT = 8  # bit offset of the exponent in word 3
# How a value's exponent e lays it out: e itself for fixed notation at or above 1,
# 16 - e for fixed notation below 1, and SCIENTIFIC otherwise
SCIENTIFIC = 21

POINTS_FORMAT = "%.2f"
POINTS_HIGH = 1e4  # %.2f of [0, 1e4) fits one word: four digits, the point, two decimals


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows (hi, hi_hi, hi_lo, lo) for k = K_MIN..K_MAX: hi = hi_hi + hi_lo is
    10**k rounded to float64 and split for Dekker's product; lo is 10**k - hi, rounded."""
    table = np.empty((4, K_MAX - K_MIN + 1))
    for i, k in enumerate(range(K_MIN, K_MAX + 1)):
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            den = 10 ** -k
            hi = 1 / den  # int true division rounds correctly
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (den * two)
        hi_hi, hi_lo = split(hi)
        table[:, i] = hi, hi_hi, hi_lo, lo
    return table


@functools.cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """The four characters of 0000..9999, and how many trailing zeros each has."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for i in range(4):
        text[..., i] = digit.reshape([-1 if j == i else 1 for j in range(4)])
    chars = text.reshape(-1, 4).view("<u4").ravel().astype(np.uint64)
    zeros = np.zeros(10 ** 4, dtype=np.uint8)
    for k in range(1, 5):
        zeros[::10 ** k] += 1
    return chars, zeros


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """(code, rows): code[16 - K_MIN - e] is the layout of exponent e, and
    column 17 * layout + (trailing zeros of d1..d16) of rows holds, for
    words 1 and 2, the masks of the digits printed before the point and of
    those printed after it, which move up one byte; the point; and word
    0's "0.000"."""
    e = 16 - np.arange(K_MIN, K_MAX + 1)
    code = np.where((e >= 0) & (e < DIGITS), e, np.where((e < 0) & (e >= -4), 16 - e, SCIENTIFIC))
    layout, trailing = np.divmod(np.arange(17 * (SCIENTIFIC + 1)), 17)  # one per column
    below_one = (layout >= DIGITS) & (layout < SCIENTIFIC)  # the point is in the lead instead
    point = np.where(layout < DIGITS, layout, 0)  # d1..d[point] precede the point
    byte = np.arange(16)  # of d1..d16
    shown = byte < np.maximum(16 - trailing, point)[:, None]
    after = shown & (byte >= point[:, None]) & ~below_one[:, None]
    dot = after & (byte == point[:, None])
    lead = np.zeros((layout.size, 8), dtype=np.uint8)
    for i, char in enumerate(b"0.000"):
        lead[below_one & (i < layout - 15), 2 + i] = char
    words = [np.where(flags, char, 0).astype(np.uint8).view("<u8")
             for flags, char in ((shown & ~after, 0xFF), (after, 0xFF), (dot, ord(".")))]
    return code, np.ascontiguousarray(np.concatenate(words + [lead.view("<u8")], axis=1).T,
                                      dtype=np.uint64)


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(whole, frac): the integer part and the fraction of ax * 10**(16 - e)."""
    hi, hi_hi, hi_lo, lo = np.take(_powers_of_ten(), 16 - K_MIN - e, axis=1)
    p = ax * hi
    ax_hi, ax_lo = split(ax)
    # t = (((ax_hi * hi_hi - p) + ax_hi * hi_lo + ax_lo * hi_hi) + ax_lo * hi_lo) + ax * lo,
    # summed in that order in place
    t = ax_hi * hi_hi
    t -= p
    ax_hi *= hi_lo
    t += ax_hi
    hi_hi *= ax_lo
    t += hi_hi
    ax_lo *= hi_lo
    t += ax_lo
    lo *= ax
    t += lo
    # p >= 2**52 is an integer; a smaller p means ax * 10**(16 - e) < 10**16, which is redone
    floor = np.floor(t)
    t -= floor
    whole = p.astype(np.int64)
    whole += floor.astype(np.int64)
    return whole, t


def _outside(whole: np.ndarray) -> np.ndarray:
    """Where whole is not a 17-digit integer."""
    return (whole - 10 ** 16).view(np.uint64) >= np.uint64(9 * 10 ** 16)


def format_rows(values: np.ndarray) -> str:
    """CSV text of a 2-d float64 array, one line per row: the same string as
    ``((",".join(["%.17g"] * cols) + "\\n") * rows) % tuple(values.ravel())``."""
    rows, cols = values.shape
    x = np.ascontiguousarray(values, dtype=float).ravel()
    ax = np.abs(x)
    special = np.flatnonzero(~((ax >= LOW) & (ax <= HIGH)))  # nan and inf too
    zero = special[ax[special] == 0.0]
    ax[special] = 1.0  # a zero is laid out as 1, then its digit is changed
    e = np.floor(np.log10(ax)).astype(np.int64)
    whole, frac = _scaled(ax, e)
    redo = np.flatnonzero(_outside(whole))
    if redo.size:
        e[redo] += np.where(whole[redo] < 10 ** 16, -1, 1)
        whole[redo], frac[redo] = _scaled(ax[redo], e[redo])
        redo = redo[_outside(whole[redo])]
    slow = np.abs(frac - 0.5) < TIE_MARGIN
    slow[special] = True
    slow[zero] = False
    slow[redo] = True
    slow = np.flatnonzero(slow)
    n = whole + (frac > 0.5)
    carry = np.flatnonzero(n == 10 ** 17)
    n[carry] = 10 ** 16
    e[carry] += 1

    # d0, then d1..d16 as two octets of two quads each, most significant first
    d0 = n // 10 ** 16
    octets = np.empty((2, n.size), dtype=np.int64)
    np.subtract(n, d0 * 10 ** 16, out=octets[1])
    np.floor_divide(octets[1], 10 ** 8, out=octets[0])
    octets[1] -= octets[0] * 10 ** 8
    first = octets // 10 ** 4
    second = octets - first * 10 ** 4
    chars, quad_zeros = _quads()
    digits_1, digits_2 = chars[first] | chars[second] << np.uint64(32)  # d1..d8 and d9..d16

    trailing = quad_zeros[second[1]]
    more = np.flatnonzero(second[1] == 0)
    if more.size:
        run = np.zeros(more.size, dtype=np.uint8)
        for quad in first[0, more], second[0, more], first[1, more]:
            run = np.where(quad == 0, run + 4, quad_zeros[quad])
        trailing[more] += run

    code, layouts = _layouts()
    layout = code[16 - K_MIN - e]
    before_1, before_2, after_1, after_2, point_1, point_2, lead = np.take(
        layouts, 17 * layout + trailing, axis=1)
    field = np.empty((n.size, WORDS), dtype="<u8")
    field[:, 0] = (lead
                   | (x.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-") << 8)
                   | (ord("0") + d0).astype(np.uint64) << np.uint64(56))
    after_1 &= digits_1
    after_2 &= digits_2
    field[:, 1] = digits_1 & before_1 | after_1 << np.uint64(8) | point_1
    field[:, 2] = (digits_2 & before_2 | after_2 << np.uint64(8) | point_2
                   | after_1 >> np.uint64(56))
    field[:, 3] = after_2 >> np.uint64(56) | np.uint64(ord(",") << _SEPARATOR)
    field.reshape(rows, cols, WORDS)[:, -1, 3] ^= np.uint64((ord(",") ^ ord("\n")) << _SEPARATOR)
    field[zero, 0] -= np.uint64(1 << 56)  # the digit 1 of the stand-in becomes 0

    sci = np.flatnonzero(layout == SCIENTIFIC)
    if sci.size:
        e = e[sci]
        mag = np.abs(e)
        hundreds = mag // 100
        exponent = (ord("e") | (ord("+") + 2 * (e < 0)) << 8  # "-" follows "+" in ASCII
                    | (hundreds > 0) * (ord("0") + hundreds) << 16).astype(np.uint64)
        # the last two characters of the quad, so at least two exponent digits
        exponent |= chars[mag - 100 * hundreds] >> np.uint64(16) << np.uint64(24)
        field[sci, 3] |= exponent << np.uint64(_EXPONENT)

    text = field.view(np.uint8).reshape(n.size, 8 * WORDS)
    if slow.size:
        room = _SEPARATOR // 8 + 8 * (WORDS - 1)  # every byte before the separator
        exact = b"".join((FORMAT % value).encode().ljust(room, b"\0") for value in x[slow].tolist())
        text[slow, :room] = np.frombuffer(exact, dtype=np.uint8).reshape(-1, room)
    return text.tobytes().translate(None, b"\0").decode("ascii")


@functools.cache
def _point_tables() -> tuple[np.ndarray, np.ndarray]:
    """Bytes 0..3 of a %.2f word: 0..9999 right-aligned, its leading zeros
    NUL; and bytes 4..6: the point and the two decimals 00..99."""
    chars = _quads()[0]
    whole = chars.copy()
    for digits in (3, 2, 1):  # below 10**digits, the first 4 - digits characters are zeros
        whole[:10 ** digits] &= np.uint64(0xFFFFFFFF << 8 * (4 - digits) & 0xFFFFFFFF)
    decimals = (chars[:100] >> np.uint64(16) << np.uint64(8) | np.uint64(ord("."))) << np.uint64(32)
    return whole, decimals


def format_points(points: np.ndarray) -> str:
    """SVG polyline points of a (rows, 2) float64 array: the same string as
    ``" ".join(["%.2f,%.2f"] * rows) % tuple(points.ravel())``."""
    x = np.ascontiguousarray(points, dtype=float).ravel()
    # each value in one word: the integer part, the point, two decimals, "," or " "
    fast = ~np.signbit(x) & (x < POINTS_HIGH)  # False for nan
    y = np.where(fast, x, 0.0)
    hi = y * 100.0
    y_hi, y_lo = split(y)
    lo = (y_hi * 100.0 - hi) + y_lo * 100.0  # hi + lo == 100 y exactly (Dekker)
    cents = np.rint(hi)
    # lo, at most half an ulp of hi, can only tip a hi that lies half way
    half = np.flatnonzero(np.abs(hi - cents) == 0.5)
    tipped = half[lo[half] != 0.0]
    cents[tipped] = hi[tipped] + np.copysign(0.5, lo[tipped])
    cents = cents.astype(np.int64)
    units = cents // 100
    slow = np.flatnonzero(~fast | (units >= 10 ** 4))
    units[slow] = cents[slow] = 0
    whole, decimals = _point_tables()
    words = whole[units] | decimals[cents - units * 100]
    words.reshape(-1, 2)[:, 0] |= np.uint64(ord(",") << 56)
    words.reshape(-1, 2)[:-1, 1] |= np.uint64(ord(" ") << 56)
    if not slow.size:
        return words.tobytes().translate(None, b"\0").decode("ascii")
    # a value too wide for its word is marked by a byte of 1 and spliced in
    words[slow] &= np.uint64(0xFF << 56)
    words[slow] |= np.uint64(1)
    parts = words.tobytes().translate(None, b"\0").decode("ascii").split("\x01")
    exact = [POINTS_FORMAT % value for value in x[slow].tolist()]
    return "".join([part for pair in zip(parts, exact) for part in pair] + [parts[-1]])
