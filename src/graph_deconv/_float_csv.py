"""CSV text of a finite float64 matrix, a block of whole rows at a time, and the table reader.

``blocks(values)`` yields strings whose concatenation is, for every row,
``",".join(map(repr, row)) + "\\n"``, byte for byte. A block holds about
``_BLOCK`` cells, so no whole-file string is built. ``parse(data, types)``
reads such text back, and any table of float and int columns, a chunk of
whole rows at a time: every value is ``float`` or ``int`` of its cell, bit
for bit, or the whole table is refused (None) and left to Python's reader.

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

Reading inverts the fixed layout. A cell ``-?[0-9]*\\.[0-9]*`` with a digit,
or ``-?[0-9]+``, of at most 23 bytes is read as three little-endian words
of the text that ends at its separator; a masked one-byte shift closes the
gap of the ".", and SWAR multiplies join the digits eight at a time into an
integer d with f digits after the point. In an int column d below
922 * 10**16, signed, is the value, exact in int64. In a float column, below
2**53 ``float(d) / 10**f`` is correctly rounded, as d and 10**f are exact
and one division rounds once (Clinger, "How to read floating point numbers
accurately", PLDI 1990). Above, that quotient is within 1.5 units of the
last place, and one exact comparison in wrapping uint64 arithmetic moves it
to the nearest double, ties to even. Every other cell (exponent notation,
subnormals, a sign "+", spaces, more than 19 digits) is ``float`` or
``int`` of its text, an int checked against int64's range, so ``int``'s
digit limit holds as it does in Python's reader. A "\\r\\n" line end is
read as "\\n"; a lone "\\r" leaves the table to Python's reader. README,
"File formats", gives the timings.
"""

from __future__ import annotations

import csv
from itertools import compress

import numpy as np

_BLOCK = 4096

_U = np.uint64
_POW5 = np.array([5**j for j in range(23)], dtype=np.int64)
_POW10 = np.array([10.0**j for j in range(23)])  # exact: 10**22 is the last exact power
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
    """Yield the CSV text of the rows of ``values``, a 2-D finite float64 array of at least one column."""
    rows, width = values.shape
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


# Reading: ``parse`` is the inverse of ``blocks``, and reads int columns too.

_CHUNK = 1 << 16  # bytes of text read first; each read is parsed up to its last whole row
_CELLS = 1 << 14  # cells read at a time after the first read, at its density
_PAD = 24  # bytes kept before the rows, so every cell has a 24-byte window
_EXACT = _U(1 << 53)  # below it a decimal's digits are exact as a float64
_FEW = 2  # at most one cell in _FEW of a chunk is left to float or int (README, "File formats")
# Per word of a cell's 24-byte window, one row each: per byte of the window
# that holds the ".", the bytes after it as a mask (the writer's ``_AFTER``,
# word-major); per count of digits, the low nibbles of that many bytes at the
# window's end.
_AFTER_POINT = _AFTER.T.copy()
_NIBBLES = np.where(_COL >= 24 - np.arange(25)[:, None], 0x0F, 0).astype(np.uint8).view(np.uint64).T.copy()


def parse(data, types: tuple | None) -> np.ndarray | None:
    """The rows of the CSV text on the binary stream ``data``, or None.

    ``data`` stands at the first row. ``types`` holds ``float`` or ``int`` per
    column, or is None for a square table of floats. The rows come back as
    one rows x width array, float64 or int64, when every column has one type,
    else as one structured array with a field ``c<k>`` per column k. Every
    value is ``float`` or ``int`` of its cell, bit for bit, an int within
    int64; a "\\r" just before a "\\n" is dropped, as ``csv.reader`` ends a
    row at either. None leaves the text to Python's reader: a cell ``float``
    or ``int`` refuses, an int outside int64, a non-finite value, a quote, a
    lone "\\r", a byte above "\\x7f", a blank line, a ragged row, a cell of
    ``csv.field_size_limit()`` bytes or more, no rows, or a headerless table
    that is not square. None is also returned for a chunk in which more
    than one cell in ``_FEW`` is not read by integer arithmetic, where
    Python's reader is the faster (README, "File formats").

    The text is read ``_CHUNK`` bytes first, then about ``_CELLS`` cells at
    a time at that first read's density, each read parsed up to its last
    line end: only one chunk is held as text, and its work arrays are
    bounded by its cells, however short. The rows go into one array sized
    from that density, in bytes of the file (each "\\r" dropped counts),
    with a 32nd more; rows past that are joined on at the end. Values move
    as their uint64 bits, never an int64 as a float64.
    """
    limit = csv.field_size_limit()
    start = data.tell()
    size = data.seek(0, 2) - start
    data.seek(start)
    ints = None if types is None else np.array([t is int for t in types])
    buf = bytearray(_PAD + _CHUNK + 1)  # its last byte ends a last row that has no line end
    out, rows, held, spill = None, 0, 0, []  # held: the bytes of a row not yet whole, at buf[_PAD:]
    room = 0  # the buffer's size for _CELLS cells
    while True:
        if _PAD + held == len(buf) - 1:  # a row longer than the buffer
            buf = buf[: _PAD + held] + bytearray(len(buf))
        elif len(buf) < room:
            buf = buf[: _PAD + held] + bytearray(room - _PAD - held)
        got = data.readinto(memoryview(buf)[_PAD + held : -1])
        stop = _PAD + held + got
        if not got and held:
            buf[stop] = 10
            stop += 1
        dropped = 0  # the "\r" bytes of this read's "\r\n" line ends, all before its last "\n"
        if buf.find(b"\r", _PAD, stop) >= 0:  # a "\r" that ends the chunk is held for the next
            text = buf[_PAD:stop].replace(b"\r\n", b"\n")
            dropped = stop - _PAD - len(text)
            stop = _PAD + len(text)
            buf[_PAD:stop] = text
        end = buf.rfind(b"\n", _PAD, stop) + 1
        if end:
            if ints is None:
                ints = np.zeros(buf.count(b",", _PAD, buf.index(b"\n", _PAD)) + 1, dtype=bool)
            values = _rows(buf, end, ints, limit)
            if values is None:
                return None
            if out is None:  # room for the rest at this chunk's density in file bytes, and a 32nd more
                read = end - _PAD + dropped
                rest = -(-(size - read) * values.size * 33 // (32 * read))
                out = np.empty(values.size + rest, dtype=np.uint64)
                room = _PAD + 1 + _CELLS * read // values.size
            total = rows * ints.size + values.size
            if total <= out.size:
                out[rows * ints.size : total] = values
            else:
                spill.append(values)
            rows += values.size // ints.size
            buf[_PAD : _PAD + stop - end] = buf[end:stop]
        held = stop - max(end, _PAD)
        if not got:
            break
    if not rows or (types is None and rows != ints.size):
        return None
    done = out[: rows * ints.size - sum(v.size for v in spill)]
    values = np.concatenate([done, *spill]) if spill else done
    if not ints.any():
        return values.view(np.float64).reshape(rows, -1)
    if ints.all():
        return values.view(np.int64).reshape(rows, -1)
    return values.view([(f"c{k}", np.int64 if i else np.float64) for k, i in enumerate(ints.tolist())])


def _rows(buf: bytearray, stop: int, ints: np.ndarray, limit: int) -> np.ndarray | None:
    """The uint64 bits of the cells of the whole rows at ``buf[_PAD:stop]``, row after row, or None as ``parse``.

    ``ints`` marks the int columns. A cell ``_cells`` marks ``fixed`` is
    read by ``_digits``, then ``_nearest`` or, in an int column, its sign;
    every other cell is ``float`` or ``int`` of its text (``_text_cells``).
    """
    cells = _cells(buf, stop, ints, limit)
    if cells is None:
        return None
    ends, at, frac, digits, minus, fixed = cells
    d = _digits(buf, ends, at, digits, fixed)
    if not ints.any():
        values = _nearest(d, frac, minus, fixed)
    else:  # a float column at a time, then the int columns, each as a column of the rows
        values = np.empty((ends.size // ints.size, ints.size))
        grid = [a.reshape(values.shape) for a in (d, frac, minus, fixed)]
        for c in np.flatnonzero(~ints).tolist():
            values[:, c] = _nearest(*(a[:, c] for a in grid))
        signed = grid[0].view(np.int64)
        np.negative(signed, out=signed, where=grid[2])
        np.copyto(values.view(np.int64), signed, where=ints)
        values = values.ravel()
    values = values.view(np.uint64)
    slow = np.flatnonzero(~fixed)
    if slow.size:
        if slow.size * _FEW > ends.size:
            return None
        whole = np.broadcast_to(ints, (ends.size // ints.size, ints.size)).ravel()[slow] if ints.any() else None
        text = _text_cells(buf, stop, ends, slow, whole)
        if text is None:
            return None
        values[slow] = text
    return values


def _text_cells(buf: bytearray, stop: int, ends, slow, whole) -> np.ndarray | None:
    """The uint64 bits of ``float`` of the text of cells ``slow``, ``int`` where ``whole``, or None as ``parse``.

    The cells, each with its separator, are cut from ``buf[_PAD:stop]`` as
    one ASCII string, so each is the text ``csv.reader`` hands on when it
    holds no quote and no "\\r".
    """
    text = np.frombuffer(buf, np.uint8, stop - _PAD, _PAD)
    starts = ends[slow - 1] + 1
    if slow[0] == 0:
        starts[0] = 0
    sizes = ends[slow] - starts + 1
    offsets = np.cumsum(sizes)
    offsets -= sizes  # where each cell starts in the string
    at = np.repeat(starts - offsets, sizes)
    at += np.arange(at.size)  # the bytes of the cells, in order
    try:
        cells = text[at].tobytes().decode("ascii")
    except UnicodeDecodeError:
        return None
    if '"' in cells or "\r" in cells:
        return None
    cells = cells.replace("\n", ",").split(",")[:-1]
    whole = np.zeros(len(cells), dtype=bool) if whole is None else whole
    values = np.empty(len(cells), dtype=np.uint64)
    try:
        for read, dtype, picked in ((float, np.float64, ~whole), (int, np.int64, whole)):
            these = cells if picked.all() else list(compress(cells, picked.tolist()))
            values.view(dtype)[picked] = np.fromiter(map(read, these), dtype, len(these))
    except (ValueError, OverflowError):
        return None
    return values if np.isfinite(values.view(np.float64)[~whole]).all() else None


def _cells(buf: bytearray, stop: int, ints: np.ndarray, limit: int):
    """The cells of the rows at ``buf[_PAD:stop]``, or None for a ragged table or too long a cell.

    The cells are cut at the "," and line-end bytes among the non-digits, and
    ``ends`` holds the byte of each cell's separator. A cell is ``fixed``,
    read by integer arithmetic, when it is ``-?[0-9]*\\.[0-9]*`` with a digit
    in a float column (``repr``'s fixed layout), or ``-?[0-9]+`` in either,
    and at most 23 bytes long, so at most 22 digits follow its ".": its last
    non-digit before the separator is its "." if it has one, and before that
    at most a "-" at its start. ``at`` is the byte of the "." in the 24 bytes
    that end at a cell's separator, or of a byte before its digits when it
    has none; ``frac`` is the count of digits after the ".", ``digits`` that
    of all its digits and ``minus`` its sign.
    """
    text = np.frombuffer(buf, np.uint8, stop - _PAD, _PAD)
    other = np.flatnonzero((text - np.uint8(48)) > 9)  # every byte but a digit
    kind = text[other]
    sep = np.flatnonzero((kind == 44) | (kind == 10))
    ends = other[sep]
    width = ints.size
    rows = ends.size // width
    if ends.size != rows * width or np.count_nonzero(kind == 10) != rows:
        return None
    if not (kind[sep[width - 1 :: width]] == 10).all():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    length = ends - starts
    if length.max() >= limit:
        return None
    count = np.diff(sep, prepend=-1)  # the non-digits of each cell, its separator included
    last = sep - 1  # the non-digit before the separator, in the cell where count > 1
    dot = kind[last] == 46
    if ints.any():
        dot.reshape(rows, width)[:, ints] = False
    plain = count - dot  # the cell's non-digits but its "."
    minus = plain == 2
    first = last - dot  # where minus holds, the cell's first non-digit
    fixed = (plain == 1) | (minus & (kind[first] == 45) & (other[first] == starts))
    digits = length - count
    digits += 1
    fixed &= (digits > 0) & (length < 24)
    at = other[last] - ends
    at += 24
    if not sep[0]:  # the first cell has no non-digit before its separator
        at[0] = 23 - ends[0]
    frac = 23 - at
    frac *= dot
    return ends, at, frac, digits, minus, fixed


def _digits(buf: bytearray, ends, at, digits, fixed: np.ndarray) -> np.ndarray:
    """The digits of each cell as one uint64 integer; ``fixed`` is cleared where it would pass 2**63.

    A cell is read from the 24 bytes that end at its separator, as three
    little-endian words, one word at a time: the word one byte later, masked
    before the ".", closes the gap the "." leaves, and the digits' nibbles
    are joined eight at a time. A cell with no "." has its ``at`` before its
    digits, so none of them move.
    """
    window = np.ndarray((len(buf) - 23,), "V24", buf, 0, (1,))  # window k ends just before buf[_PAD + k]
    w = window[ends].view(np.uint64).reshape(-1, 3)
    for j in range(3):
        x = w[:, j] << _U(8)
        if j:
            x |= w[:, j - 1] >> _U(56)
        moved = w[:, j] ^ x
        moved &= _AFTER_POINT[j].take(at, mode="clip")
        x ^= moved  # the bytes after the "." as they were, those before it one byte later
        x &= _NIBBLES[j].take(digits, mode="clip")
        _join8(x)
        if j == 0:
            fixed &= x < 922
            d = x
            d *= _U(10**16)
        else:
            if j == 1:
                x *= _U(10**8)
            d += x
    return d


def _join8(x: np.ndarray) -> None:
    """uint64 words of eight digits, a byte each, the leading one lowest, to their values in place."""
    x *= _U(10 * 256 + 1)
    x >>= _U(8)
    x &= _U(0x00FF00FF00FF00FF)
    x *= _U(100 * 65536 + 1)
    x >>= _U(16)
    x &= _U(0x0000FFFF0000FFFF)
    x *= _U(10000 * 2**32 + 1)
    x >>= _U(32)


def _nearest(d: np.ndarray, f: np.ndarray, negative: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """The float64 nearest ``d / 10**f``, ties to even, negated where ``negative``.

    ``d`` < 2**63 and 0 <= ``f`` <= 22 where ``fixed`` holds; elsewhere the
    value is left to ``float``. ``fixed`` is also cleared where the one
    division below cannot decide the rounding.

    Below 2**53, ``d`` and ``10**f`` are exact, so one division rounds once
    and correctly (Clinger, PLDI 1990). Above, x0 = c * 2**q from that
    division is off by less than 1.5 units of its last place: converting d
    errs by less than one, dividing by at most half. Every power of two in
    range times ``10**f`` is exact, so x0 and d / 10**f lie on the same side
    of each, and the nearest double is (c - 1, c or c + 1) * 2**q. The one
    exception is x0 a power of two above d / 10**f, where the doubles below
    are twice as dense: that cell is left to ``float``. With
    a = max(0, 1-q-f) and b = max(0, q+f-1), 2**a * 10**f times d / 10**f - x0
    and times half a unit of the last place are ``diff`` =
    d * 2**a - 2c * 5**f * 2**b and ``half`` = 5**f * 2**b. |diff| is below
    3 ``half`` < 2**54, so its wrapping uint64 value read as int64 is exact.
    """
    x = d.view(np.int64).astype(np.float64)
    x /= _POW10.take(f, mode="clip")
    bits = x.view(np.uint64)
    big = d >= _EXACT
    c = bits & _U((1 << 52) - 1)
    c |= _U(1 << 52)
    e = (bits >> _U(52)).view(np.int64)
    e += f - 1076  # q + f - 1
    half = _POW5.take(f, mode="clip").view(np.uint64)
    half <<= np.maximum(e, 0).view(np.uint64)
    np.negative(e, out=e)
    diff = d << np.maximum(e, 0, out=e).view(np.uint64)
    c <<= _U(1)
    c *= half
    diff -= c
    diff, half = diff.view(np.int64), half.view(np.int64)
    size = np.abs(diff)
    step = (size > half) | ((size == half) & (bits & _U(1)).astype(bool))  # a tie goes to the even one
    step = step.view(np.int8)
    down = (diff < 0).view(np.int8)
    step ^= -down  # a step toward d / 10**f
    step += down
    step *= big
    power = np.flatnonzero((bits & _U((1 << 52) - 1)) == 0)
    fixed[power[(diff[power] < 0) & big[power]]] = False
    bits.view(np.int64)[...] += step
    bits |= negative.astype(np.uint64) << _U(63)
    return x
