"""The block renderer of float tables against the row path it replaced, and its reader.

``row_path`` is how a float matrix was written before: each row as
``",".join(map(repr, row)) + "\\n"``. On every matrix, ``_float_csv.blocks``
must produce the same text, byte for byte, and so must the writers that use
it. ``_float_csv.parse`` must read every cell as ``float`` does, bit for bit,
the renderer's text and decimals of up to 19 digits near and at the midpoints
between doubles alike, and every cell of an int column as ``int`` does, within
int64, and leave to Python's reader what it refuses.
"""

import csv
import io
import tracemalloc
from decimal import ROUND_FLOOR, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graph_deconv import SignalEnsemble, _float_csv
from graph_deconv import io as gio


def row_path(matrix: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist())


def rendered(matrix) -> str:
    return "".join(_float_csv.blocks(np.asarray(matrix, dtype=np.float64)))


def assert_matches(values) -> None:
    """``values`` and their negations, 7 cells a row, rendered as the row path renders them."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, -values])
    matrix = np.resize(values, (-(-values.size // 7), 7))
    if rendered(matrix) != row_path(matrix):
        bad = next((x for x in values.tolist() if rendered([[x]]) != repr(x) + "\n"), None)
        if bad is None:
            pytest.fail("every cell renders alone as repr, but the table differs")
        pytest.fail(f"{bad!r} ({bad.hex()}) is rendered as {rendered([[bad]])!r}")


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_any_finite_matrix(matrix):
    assert rendered(matrix) == row_path(matrix)


def test_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert_matches(values[np.isfinite(values)])


def test_random_bit_patterns_in_the_fixed_layout():
    """Every double from 1e-4 up to 1e16 is equally likely: the cells the arithmetic renders."""
    lo, hi = np.array([1e-4, 1e16]).view(np.int64)
    assert_matches(np.random.default_rng(7).integers(lo, hi, 200_000).view(np.float64))


def test_powers_of_two_and_ten_with_their_neighbours():
    assert_matches(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    assert_matches(with_neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_integers_around_two_to_the_53():
    centre = 2**53
    assert_matches(np.arange(centre - 5000, centre + 5000, dtype=np.float64))
    assert_matches(np.arange(0.0, 20_000.0))


def test_layout_switches():
    """repr writes 1e-4 <= |x| < 1e16 as ddd.ddd and everything else with an exponent."""
    edges = np.array([1e-4, 1e-3, 1.0, 1e15, 1e16])
    down, up, walk = edges, edges, [edges]
    for _ in range(50):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        walk += [down, up]
    assert_matches(np.concatenate(walk))


def test_halfway_cases_round_to_even():
    """Doubles in [2**50, 2**51) with an odd significand lie halfway between two 16-digit decimals."""
    significands = 2**52 + 2 * np.arange(1, 20_001, dtype=np.int64) + 1
    values = np.ldexp(significands.astype(np.float64), -2)
    assert values[0] == 2**50 + 0.75 and repr(2**50 + 0.25) == "1125899906842624.2"
    assert_matches(values)
    assert_matches([2**50 + 0.25, 2**50 + 0.75, 2**51 - 0.25])


def test_short_decimals():
    rng = np.random.default_rng(3)
    values = rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.integers(-5, 17, 20_000)
    assert_matches(np.concatenate([np.round(values, d) for d in range(8)]))


def test_zeros_subnormals_and_extremes():
    tiny = np.ldexp(1.0, -1074)
    normal = 2.0**-1022
    values = [0.0, -0.0, tiny, 2 * tiny, np.nextafter(normal, 0.0), normal, np.finfo(float).max, 1e300, 0.1]
    assert_matches(values)
    assert rendered([[0.0, -0.0]]) == "0.0,-0.0\n"


def test_fallback_cells_at_block_and_row_edges():
    """Cells repr renders itself (subnormals, exponent notation) spliced in at every edge."""
    width = 96
    per = _float_csv._BLOCK // width
    matrix = np.random.default_rng(5).normal(0.0, 3.0, (3 * per + 5, width))
    odd = [5e-324, -1.5e-5, 1e16, -2.5e300]
    spots = [(per, 0), (2 * per - 1, width - 1), (3, width - 1), (per + 1, 0), (3 * per + 4, width - 1)]
    for k, (r, c) in enumerate(spots):
        matrix[r, c] = odd[k % len(odd)]
    matrix[2 * per, :] = 1e-7  # a row of fallback cells only
    assert rendered(matrix) == row_path(matrix)


def test_rows_wider_than_a_block():
    width = _float_csv._BLOCK + 100
    matrix = np.random.default_rng(9).normal(0.0, 1e-3, (3, width))
    matrix[1, -1], matrix[2, 0] = 1e-300, -0.0
    assert rendered(matrix) == row_path(matrix)


def test_empty_table():
    """A table with no columns never gets here: ``io._matrix`` refuses it."""
    assert rendered(np.zeros((0, 4))) == ""


def test_a_view_renders_like_its_copy():
    matrix = np.random.default_rng(2).normal(size=(50, 30))
    assert rendered(matrix.T) == row_path(matrix.T)
    assert rendered(matrix[::3, 1::2]) == row_path(matrix[::3, 1::2])


def test_float_table_writers_write_the_row_path(tmp_path):
    rng = np.random.default_rng(11)
    signals = rng.normal(0.0, 3.0, (300, 24))
    signals[7, 3], signals[299, 23] = 3e-9, -0.0
    cov = signals.T @ signals / 300
    cov[rng.random(cov.shape) < 0.8] = 0.0
    header = ",".join(f"v{k}" for k in range(1, 25)) + "\n"
    e = SignalEnsemble(signals=signals, domain="vertex")
    gio.write_signals(tmp_path / "s.csv", e)
    gio.write_covariance(tmp_path / "c.csv", cov)
    assert (tmp_path / "s.csv").read_bytes() == (header + row_path(signals)).encode()
    assert (tmp_path / "c.csv").read_bytes() == row_path(cov).encode()
    gio.write_reconstruction(tmp_path / "r.csv", e, tmp_path / "rc.csv", cov)
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()
    assert (tmp_path / "rc.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
    assert np.array_equal(gio.read_covariance(tmp_path / "c.csv"), cov)


# The reader: ``_float_csv.parse`` against ``float`` of every cell.


def read_back(text: str, width, types=float) -> np.ndarray | None:
    """``parse`` of ``text``: ``width`` columns of ``types``, or a square table of floats for None."""
    return _float_csv.parse(io.BytesIO(text.encode()), None if width is None else (types,) * width)


def assert_reads_back(values) -> None:
    """``values`` and their negations, 7 cells a row, parse back bit for bit.

    Every cell is taken, however many ``float`` reads (``_FEW`` is 0), so the
    families that repr writes with an exponent are read too.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, -values])
    matrix = np.resize(values, (-(-values.size // 7), 7))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_float_csv, "_FEW", 0)
        got = read_back(rendered(matrix), 7)
    assert got is not None and got.shape == matrix.shape
    bad = np.flatnonzero(got.view(np.uint64) != matrix.view(np.uint64))
    if bad.size:
        x, y = matrix.flat[bad[0]], got.flat[bad[0]]
        pytest.fail(f"{x!r} ({x.hex()}) is read back as {y!r} ({y.hex()})")


def assert_reads_as_float(cells, width: int = 7) -> np.ndarray:
    """The table of ``cells``, ``width`` a row, parses to ``float`` of each cell, bit for bit."""
    cells = list(cells)
    cells += ["0.5"] * (-len(cells) % width)
    text = "".join(",".join(cells[k : k + width]) + "\n" for k in range(0, len(cells), width))
    got = read_back(text, width)
    want = np.array([float(c) for c in cells]).reshape(-1, width)
    assert got is not None
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    if bad.size:
        pytest.fail(f"{cells[bad[0]]!r} is read as {got.flat[bad[0]]!r}, float reads {want.flat[bad[0]]!r}")
    return got


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_any_finite_matrix_reads_back(matrix):
    """Bit for bit; with the default ``_FEW`` a chunk of many exponent cells may be left to numpy."""
    text = rendered(matrix)
    got = read_back(text, matrix.shape[1])
    assert got is None or got.tobytes() == matrix.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_float_csv, "_FEW", 0)
        assert read_back(text, matrix.shape[1]).tobytes() == matrix.tobytes()


def test_families_read_back():
    """The families the writer's oracle test renders, each read back."""
    assert_reads_back(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    assert_reads_back(with_neighbours([float(f"1e{e}") for e in range(-323, 309)]))
    assert_reads_back(np.arange(2**53 - 5000, 2**53 + 5000, dtype=np.float64))
    assert_reads_back(np.arange(0.0, 20_000.0))
    edges = np.array([1e-4, 1e-3, 1.0, 1e15, 1e16])
    down, up, walk = edges, edges, [edges]
    for _ in range(50):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        walk += [down, up]
    assert_reads_back(np.concatenate(walk))
    tiny = np.ldexp(1.0, -1074)
    assert_reads_back([0.0, -0.0, tiny, 2 * tiny, np.nextafter(2.0**-1022, 0.0), np.finfo(float).max, 0.1])
    assert_reads_back(np.ldexp((2**52 + 2 * np.arange(1, 20_001, dtype=np.int64) + 1).astype(np.float64), -2))


def test_random_doubles_in_the_fixed_layout_read_back():
    lo, hi = np.array([1e-4, 1e16]).view(np.int64)
    assert_reads_back(np.random.default_rng(8).integers(lo, hi, 200_000).view(np.float64))
    bits = np.random.default_rng(20261020).integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert_reads_back(values[np.isfinite(values)])


def test_rows_wider_than_a_block_read_back():
    matrix = np.random.default_rng(9).normal(0.0, 1e-3, (3, _float_csv._BLOCK + 100))
    matrix[1, -1], matrix[2, 0] = 1e-300, -0.0
    assert read_back(rendered(matrix), matrix.shape[1]).tobytes() == matrix.tobytes()


def _decimal_cells(values, digits: int) -> list:
    """The exact midpoint above each of ``values`` and the decimals of
    ``digits`` significant digits just below, at and just above it."""
    cells = []
    for v in values.tolist():
        mid = (Decimal(v) + Decimal(float(np.nextafter(v, np.inf)))) / 2
        exponent = mid.adjusted() - digits + 1
        below = mid.quantize(Decimal(1).scaleb(exponent), rounding=ROUND_FLOOR)
        step = Decimal(1).scaleb(exponent)
        for d in (below - step, below, below + step, below + 2 * step):
            text = format(d, "f")
            cells.append(text if "." in text else text + ".0")
    return cells


@pytest.mark.parametrize("digits", [17, 18, 19])
def test_decimals_next_to_midpoints_read_as_float(digits):
    """Near a midpoint between two doubles, the digits past the 16th decide."""
    rng = np.random.default_rng(digits)
    values = rng.uniform(1.0, 10.0, 5000) * 10.0 ** rng.integers(-4, 16, 5000)
    assert_reads_as_float(_decimal_cells(values, digits))


def test_exact_midpoints_round_to_even():
    """Decimals of at most 19 digits that lie exactly halfway between two doubles."""
    rng = np.random.default_rng(5)
    cells = []
    for c in (2**52 + rng.integers(0, 2**52, 3000)).tolist():
        for q in range(-8, 3):
            text = format(Decimal(2 * c + 1) * Decimal(2) ** (q - 1), "f")
            text = text if "." in text else text + ".0"
            if len(text.replace(".", "").lstrip("0")) <= 19:
                cells += [text, "-" + text]
    assert len(cells) > 10_000
    got = assert_reads_as_float(cells)
    assert (got.view(np.uint64) & 1 == 0).all()  # every tie went to the even significand


def test_cells_outside_the_fixed_layout_are_read_by_float():
    odd = ["1e5", "+1.5", " 2.5 ", "1_0.5", "5.", "-.5", ".5", "00.5", "-0.0", "0.000", "2\x0b",
           "0.00000000000000000000001", "12345678901234567890.5", "9223372036854775807.5", "4.4e-320"]
    assert_reads_as_float([c for cell in odd for c in [cell] + ["1.25"] * 7])


REGULAR = "0.5,-1.25\n" * 20  # rows of fixed-layout cells around a refused one


@pytest.mark.parametrize(
    "text",
    ['1.5,"2.5"\n', "2\r,2.5\n", "1.5\r2.5\n", "1.5,2.5\r\r\n", "\n", "3.5\n", "3.5,4.5,5.5\n",
     "1.5\n2.5,3.5,4.5\n", "1.5,abc\n", "1.5,\n", "1.5,inf\n", "1.5,1e400\n", "1.5,nan\n", "1.5,\x1c2.5\n",
     "1.5,\x1f2.5\n", "1.5,2.5\xa0\n", "1-2.5,3.5\n"],
)
def test_refused_text_is_left_to_python(text):
    """Each between rows of fixed-layout cells, so no share of ``float`` cells decides."""
    assert read_back(REGULAR + REGULAR, 2) is not None
    assert read_back(REGULAR + text + REGULAR, 2) is None


@pytest.mark.parametrize("text, width", [("", 2), ("1.5,2.5\n", None), ("1e5,2e5\n3e5,4.5\n", 2)])
def test_no_rows_a_table_not_square_and_many_exponent_cells_are_left(text, width):
    assert read_back(text, width) is None


def test_cell_of_the_field_size_limit_is_left_to_python():
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(6)
        assert read_back("1.2345,2.5\n", 2) is None
        assert read_back("1.234,2.5\n", 2).tolist() == [[1.234, 2.5]]
    finally:
        csv.field_size_limit(limit)


def test_rows_across_chunk_edges(monkeypatch):
    """Chunks of 64 bytes: rows longer than a chunk, rows across chunk edges, a last row with no line end."""
    monkeypatch.setattr(_float_csv, "_CHUNK", 64)
    matrix = np.random.default_rng(12).normal(0.0, 5.0, (40, 9))
    text = rendered(matrix)
    assert read_back(text, 9).tobytes() == matrix.tobytes()
    assert read_back(text[:-1], 9).tobytes() == matrix.tobytes()
    assert read_back(rendered(matrix[:9]), None).tobytes() == matrix[:9].tobytes()


def test_rows_past_the_first_chunks_density(monkeypatch):
    """Long rows first, then short ones: the array sized from the first chunk is joined with the rest."""
    monkeypatch.setattr(_float_csv, "_CHUNK", 256)
    matrix = np.zeros((200, 4))
    matrix[:20] = np.random.default_rng(13).normal(0.0, 1.0, (20, 4))
    assert read_back(rendered(matrix), 4).tobytes() == matrix.tobytes()


def test_float_tables_the_library_writes_are_parsed_vectorised(tmp_path, monkeypatch):
    """Observations, covariances with zeros and -0.0 and a few exponent cells, and reconstructions."""
    parse = _float_csv.parse

    def kept(data, types):
        values = parse(data, types)
        assert values is not None, "a float table the library writes went to Python's reader"
        return values

    monkeypatch.setattr(_float_csv, "parse", kept)
    rng = np.random.default_rng(14)
    signals = rng.normal(0.0, 4.0, (744, 96))
    signals[3, :5] = [0.0, -0.0, 1e-7, 3e20, 2.5]
    cov = signals.T @ signals / 744
    cov[rng.random(cov.shape) < 0.5] = 0.0
    e = SignalEnsemble(signals=signals, domain="vertex")
    gio.write_signals(tmp_path / "s.csv", e)
    gio.write_covariance(tmp_path / "c.csv", cov)
    gio.write_reconstruction(tmp_path / "r.csv", e, tmp_path / "rc.csv", cov[:5, :5])
    assert gio.read_signals(tmp_path / "s.csv").signals.tobytes() == signals.tobytes()
    assert gio.read_covariance(tmp_path / "c.csv").tobytes() == cov.tobytes()
    assert gio.read_signals(tmp_path / "r.csv").signals.tobytes() == signals.tobytes()
    assert gio.read_covariance(tmp_path / "rc.csv").tobytes() == cov[:5, :5].tobytes()


def test_reading_a_large_table_holds_one_chunk_of_text(tmp_path):
    """2000 x 1024 (40 MB of text, 16.4 MB of values): the traced peak is the
    values, a 32nd more, and the work arrays of one chunk."""
    matrix = np.random.default_rng(15).normal(0.0, 1.0, (2000, 1024))
    gio.write_signals(tmp_path / "big.csv", SignalEnsemble(signals=matrix, domain="vertex"))
    tracemalloc.start()
    try:
        got = gio.read_signals(tmp_path / "big.csv").signals
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == matrix.tobytes()
    assert peak <= matrix.nbytes * 33 / 32 + 6e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("encoding, plain", [("utf-8", True), ("latin-1", True), ("utf-7", False), ("utf-16", False)])
def test_text_in_an_encoding_that_moves_ascii_is_left(tmp_path, encoding, plain):
    """The parse reads bytes, which are the text only where ASCII decodes as
    itself: in UTF-7 the bytes "+1.5" are not the text "+1.5"."""
    path = tmp_path / "signals.csv"
    path.write_bytes(("v1,v2\n" + REGULAR * 50).encode(encoding) + b"+1.5,2.5\n")  # past the header's read
    with open(path, encoding=encoding, newline="") as fh:
        fh.readline()
        at = fh.tell()
        assert fh.tell() == at
        assert (gio._parsed_rows(fh, (float, float)) is not None) == plain


def test_a_line_end_of_cr_and_lf_reads_as_lf(monkeypatch):
    """Every "\\r\\n", and a last "\\r". Reads of 100 to 139 bytes put the end of
    some read between the "\\r" and the "\\n" of a line end."""
    matrix = np.random.default_rng(16).normal(0.0, 5.0, (40, 3))
    text = rendered(matrix).replace("\n", "\r\n")
    monkeypatch.setattr(_float_csv, "_CELLS", 0)  # every read as long as the first
    for chunk in range(100, 140):
        monkeypatch.setattr(_float_csv, "_CHUNK", chunk)
        assert read_back(text, 3).tobytes() == matrix.tobytes()
        assert read_back(text[:-1], 3).tobytes() == matrix.tobytes()  # a last line that ends in "\r"
        assert read_back(text[:-2], 3).tobytes() == matrix.tobytes()
        assert read_back(text[:-2] + "\r\r", 3) is None
        lone = text.replace("\r\n", "\n", 20).replace("\r\n", "\r", 1)
        assert read_back(lone, 3) is None  # a lone "\r" at row 21


def test_a_crlf_table_is_sized_from_its_bytes_in_the_file():
    """A raw station grid (96 stations, 31 days, 24 hours) with "\\r\\n" line ends
    gets an output array no larger than with "\\n" ones: the "\\r" bytes a read
    drops count toward the density and the bytes still to read."""
    cells = [(s, d, h) for s in range(1, 97) for d in range(1, 32) for h in range(24)]
    values = np.random.default_rng(17).normal(10.0, 5.0, len(cells)).tolist()
    lf = "".join(f"{s},{d},{h},{x!r}\n" for (s, d, h), x in zip(cells, values))
    types = (int, int, int, float)
    by_lf = _float_csv.parse(io.BytesIO(lf.encode()), types)
    by_crlf = _float_csv.parse(io.BytesIO(lf.replace("\n", "\r\n").encode()), types)
    assert by_crlf.tobytes() == by_lf.tobytes()
    assert by_crlf.base.size <= by_lf.base.size  # the array the rows were read into


def test_a_cell_of_23_bytes_has_at_most_22_digits_after_its_point():
    """A point and 23 digits is one byte past every window the arithmetic reads."""
    cells = ["." + "0" * 22 + "1", "-." + "0" * 21 + "1", "." + "0" * 21 + "1", "0." + "0" * 21 + "1"]
    assert_reads_as_float([c for cell in cells for c in [cell] + ["1.25"] * 7])


INT64 = ["9223372036854775807", "-9223372036854775808", "9223372036854775806", "-9223372036854775807",
         "922000000000000000", "1000000000000000000", "-1", "-0", "0", "007", "00000000000000000000042",
         "99999999999999999", "12345678901234567"]


@pytest.mark.parametrize("width", [1, 3])
def test_int_cells_read_as_int(width):
    """The digit joins for cells below 922 * 10**16, ``int`` of the text above."""
    cells = [c for cell in INT64 for c in [cell] + ["17"] * 3]
    cells += ["5"] * (-len(cells) % width)
    text = "".join(",".join(cells[k : k + width]) + "\n" for k in range(0, len(cells), width))
    got = read_back(text, width, int)
    assert got.dtype == np.int64 and got.ravel().tolist() == [int(c) for c in cells]


@pytest.mark.parametrize("cell", ["9223372036854775808", "-9223372036854775809", "+5", " 5", "1_0", "2.0",
                                  "5.", "-", "", "1e3", "0x10", "5-3", "--5", "\u0661"])
def test_int_cell_outside_int64_or_not_plain_digits_is_left_or_read_by_int(cell):
    """Each among plain int cells: an ASCII cell ``int`` reads within int64 is read, any other is left."""
    text = "7,8\n" * 20 + f"7,{cell}\n" + "7,8\n" * 20
    got = read_back(text, 2, int)
    try:
        want = int(cell)
    except ValueError:
        want = None
    if want is None or not -(2**63) <= want < 2**63 or not cell.isascii():
        assert got is None
    else:
        assert got[20, 1] == want and got.dtype == np.int64


def test_mixed_columns_read_as_one_structured_array():
    text = "1,2,0,15.25\n-3,007,23,-0.0\n9223372036854775807,5,7,1e-300\n"
    got = _float_csv.parse(io.BytesIO(text.encode()), (int, int, int, float))
    assert got.dtype.names == ("c0", "c1", "c2", "c3")
    assert got["c0"].tolist() == [1, -3, 2**63 - 1] and got["c1"].tolist() == [2, 7, 5]
    assert got["c3"].tobytes() == np.array([15.25, -0.0, 1e-300]).tobytes()
    assert [got.dtype[k] for k in range(4)] == [np.int64] * 3 + [np.float64]
