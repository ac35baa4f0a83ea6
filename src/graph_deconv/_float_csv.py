"""CSV text of a finite float64 matrix, a block of whole rows at a time.

``blocks(values)`` yields strings whose concatenation is, for every row,
``",".join(map(repr, row)) + "\\n"``, byte for byte. A block holds about
``_BLOCK`` cells, so no whole-file string is built.

``repr`` prints the shortest decimal that reads back as the same double,
the closest such when there are several, ties to even digits; it uses the
fixed layout ``ddd.ddd`` when 1e-4 <= |x| < 1e16 and exponent notation
otherwise. Cells in that fixed range, and zeros, are rendered here with
numpy arithmetic over the whole block; every other cell (subnormals and
exponent notation) is ``repr`` of that cell alone, spliced in.

The digits follow Giulietti's Schubfach decision ("The Schubfach way to
render doubles", 2020). Take x = c * 2**q, c the 53-bit significand, its
rounding interval of width 2**q around x, and k = floor(log10(2**q)).
Scaled by 10**-k, the interval holds at most one multiple of 10 and at
least one of s = floor(x * 10**-k) and s + 1. The multiple of 10, when the
interval holds one, is the shortest decimal; otherwise the one of s and
s + 1 that it holds, or when it holds both the closer, ties to even.

Giulietti reads 10**-k from a table of 126-bit approximations. In the fixed
range q is in [-66, 1] and k in [-20, 0], so 10**-k is an integer, and
4 x 10**-k is exactly W / 2**E with W = 8 c 5**-k and E = k - q + 1 <= 47.
W is known modulo 2**64 from one wrapping uint64 product and 4 x 10**-k
to within 64 from one float64 product, which makes every comparison exact
in int64. Two refinements of Schubfach change no digit in this range, so
they are left out: the narrower interval below a power of two, whose lower
neighbour is closer (the 67 powers of two in range are each in the oracle
test), and the open interval of an odd c (a bound is a whole multiple of
10**k only at q = 1, where the bounds 2c +- 1 are odd and x = 2c itself is
the closest candidate).
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4096

_U = np.uint64
_POW5 = np.array([5**j for j in range(21)], dtype=np.int64)
_POW10 = np.array([10.0**j for j in range(21)])  # exact: 10**22 is the last exact power
_COL = np.arange(24)  # the bytes of a cell's three little-endian 8-byte words


def _layouts() -> np.ndarray:
    """Per decimal-point byte: masks of the bytes before and after it, and a template.

    The template holds the "." and, at every byte the digits leave free, "0",
    with "-" just before the first byte a cell of that point position shows.
    Each is 24 bytes, three little-endian 8-byte words.
    """
    point = _COL[:, None]
    template = np.where(_COL < 6, ord("0"), 0)
    template = np.where(_COL == np.minimum(point - 2, 4), ord("-"), template)
    template = np.where(_COL == point, ord("."), template)
    masks = [np.where(_COL < point, 0xFF, 0), np.where(_COL > point, 0xFF, 0), template]
    return np.stack(masks).astype(np.uint8).view(np.uint64)


_BEFORE, _AFTER, _TEMPLATE = _layouts()
# Row start * 25 + stop marks the bytes start <= b < stop of a cell.
_TAKE = ((_COL >= _COL[:, None, None]) & (_COL < np.arange(25)[:, None])).reshape(-1, 24)


def blocks(values: np.ndarray):
    """Yield the CSV text of the rows of ``values``, a 2-D finite float64 array."""
    rows, width = values.shape
    if width == 0:
        yield "\n" * rows
        return
    per = max(1, _BLOCK // width)
    seps = np.full((per, width), ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    for r in range(0, rows, per):
        block = values[r : r + per]
        yield _render(block.ravel(), seps[: len(block)].ravel())


def _digits8(x: np.ndarray) -> np.ndarray:
    """uint64 values below 10**8 as their eight decimal digits, a byte each, the leading one lowest."""
    hi = x // _U(10000)
    x = hi | ((x - hi * _U(10000)) << _U(32))  # two 4-digit halves, a 32-bit lane each
    hi = ((x * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)  # lane // 100
    x = hi | ((x - hi * _U(100)) << _U(16))  # four 2-digit quarters, a 16-bit lane each
    hi = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # lane // 10
    return hi | ((x - hi * _U(10)) << _U(8))


def _shortest(v: np.ndarray):
    """Shortest round-trip digits of positive ``v`` in [1e-4, 1e16): (17-digit D, decpt p).

    The decimal is 0.d1d2...d17 * 10**p, trailing zeros included in D.
    """
    bits = v.view(np.uint64)
    c = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    q = (bits >> _U(52)).astype(np.int64) - 1075
    k = (q * 661971961083) >> 41  # floor(log10(2**q))
    f = _POW5[-k]
    e = k - q + 1
    # est is within 64 of 4 x 10**-k, so diff = W - est * 2**E is exact in int64
    # although W is only known modulo 2**64.
    est = (v * _POW10[-k] * 4.0).astype(np.int64)
    w = (c << _U(3)) * f.view(np.uint64)  # W modulo 2**64
    diff = (w - (est.view(np.uint64) << e.view(np.uint64))).view(np.int64)
    s = (est + (diff >> e)) >> 2
    # x and the bounds of its interval, less 4 s and times 2**E: 4 unit is 10**k.
    unit = np.left_shift(np.int64(1), e)
    mid = diff - ((s << 2) - est) * unit
    lo, hi = mid - (f << 2), mid + (f << 2)
    r = s - (s // 10) * 10
    down10 = lo <= -4 * r * unit  # s - r is in the interval
    up10 = 4 * (10 - r) * unit <= hi  # s - r + 10 is
    down, up = lo <= 0, 4 * unit <= hi  # s is, s + 1 is
    past = mid - 2 * unit  # x against s + 1/2
    round_up = np.where(down != up, up, (past > 0) | ((past == 0) & ((s & 1) == 1)))
    d = s + np.where(down10 != up10, 10 * up10 - r, round_up)
    short = d < 10**16
    return np.where(short, d * 10, d), k + 17 - short


def _render(values: np.ndarray, seps: np.ndarray) -> str:
    """The cells of 1-D ``values``, each ``repr`` followed by its separator byte."""
    n = values.size
    mag = np.abs(values)
    fixed = (mag >= 1e-4) & (mag < 1e16)
    zero = mag == 0.0
    d, p = _shortest(np.where(fixed, mag, 1.0))
    d = np.where(zero, 0, d).view(np.uint64)
    p = np.where(zero, 1, p)  # zero digits at p = 1 read 0.0
    first = d // _U(10**16)
    rest = d - first * _U(10**16)
    upper = rest // _U(10**8)
    digits = _digits8(np.stack([upper, rest - upper * _U(10**8)]))
    # The significant digits end at the highest nonzero digit byte, read from
    # the float64 exponent of each word (-128 for a zero word).
    top = ((digits.astype(np.float64).view(np.uint64) >> _U(52)).view(np.int64) - 1023) >> 3
    count = np.where(digits[1] != 0, 10 + top[1], np.maximum(2 + top[0], 1))
    upper, lower = digits | _U(0x3030303030303030)
    # Five free bytes, then the 17 digits, as three little-endian 8-byte words
    # per cell; shifted is the same string one byte later. A cell's last byte
    # is free, so no byte moves into the next cell.
    z = np.empty((n, 3), dtype=np.uint64)
    z[:, 0] = ((first | _U(0x30)) << _U(40)) | (upper << _U(48))
    z[:, 1] = (upper >> _U(16)) | (lower << _U(48))
    z[:, 2] = lower >> _U(16)
    z = z.ravel()
    shifted = z << _U(8)
    shifted[1:] |= z[:-1] >> _U(56)
    point = p + 5
    words = z & _BEFORE.take(point, axis=0).ravel()
    words |= shifted & _AFTER.take(point, axis=0).ravel()
    words |= _TEMPLATE.take(point, axis=0).ravel()
    cells = words.view(np.uint8).reshape(n, 24)
    start = 4 + np.minimum(p, 1)  # the "0" before the point when p <= 0, else the first digit
    end = 6 + np.maximum(count, p + 1)  # at least one digit after the point
    cells.reshape(-1)[np.arange(0, 24 * n, 24) + end] = seps
    fallback = ~(fixed | zero)
    start = np.where(fallback, end, start - np.signbit(values))
    text = cells[np.take(_TAKE, start * 25 + end + 1, axis=0)].tobytes().decode("ascii")
    if not fallback.any():
        return text
    # A fallback cell rendered as its separator alone; splice repr in before it.
    ends = np.cumsum(end + 1 - start)
    pieces, done = [], 0
    for i in np.flatnonzero(fallback).tolist():
        at = int(ends[i]) - 1
        pieces += text[done:at], repr(float(values[i]))
        done = at
    pieces.append(text[done:])
    return "".join(pieces)
