"""The CSV readers against the Python-only table reader they replaced.

``OracleTable`` and ``oracle_read_table`` below are the table reader that
parsed every cell with ``csv.reader`` and Python's ``float`` and ``int``, and
the ``oracle_*`` readers call it column by column in the order the readers
did. On every input, valid or mutated, each reader must return bit-identical
values or raise ``FileFormatError`` with the oracle's exact message. The
memory test bounds what ``load_raw_dataset`` allocates on a station grid the
size of a month of hourly data. The last tests put separators, long lines,
line ends and blank lines where ``_float_csv.parse`` cuts the file into
chunks, and check which grids reach the repeat search. The rest check that
``str``, ``pathlib`` and bytes paths, and names numpy would decompress or
fetch, read alike and never reach ``np.loadtxt``; that int cells around
``int``'s digit limit and int64's range read as ``int`` reads them; and that
a table the parse leaves in a later chunk is read again from its first row.
"""

import csv
import io
import operator
import os
import sys
import tracemalloc
from itertools import chain
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_fuzz import MUTATIONS, TOKENS, mutate

from graph_deconv import ChannelEstimate, FileFormatError, RawDataset, SignalEnsemble, load_raw_dataset
from graph_deconv import io as gio
from graph_deconv.estimation import Component, sign_of


class OracleTable(NamedTuple):
    path: object
    rows: list[list[str]]
    width: int
    first_row: int

    def numbers(self, dtype=float, col=None) -> np.ndarray:
        rows = iter(self.rows)
        cells = chain.from_iterable(rows) if col is None else map(operator.itemgetter(col), rows)
        count = len(self.rows) * (self.width if col is None else 1)
        try:
            values = np.fromiter(map(dtype, cells), np.float64 if dtype is float else np.int64, count)
        except (ValueError, OverflowError):
            r = len(self.rows) - operator.length_hint(rows) - 1
            if col is None:
                row = self._replace(rows=self.rows[r : r + 1], first_row=self.first_row + r)
                for c in range(self.width):
                    row.numbers(dtype, c)
            problem = "not a number" if dtype is float else "not an int64 integer"
        else:
            bad = np.flatnonzero(~np.isfinite(values))
            if not bad.size:
                return values if col is not None else values.reshape(-1, self.width)
            r, problem = int(bad[0]), "non-finite value"
            if col is None:
                r, col = divmod(r, self.width)
        raise FileFormatError(
            f"{self.path}: row {self.first_row + r}, column {col + 1}: "
            f"{problem}: {self.rows[r][col]!r}"
        )

    def index_order(self) -> np.ndarray:
        index = self.numbers(int, 0)
        order = np.argsort(index)
        if not np.array_equal(index[order], np.arange(1, index.size + 1)):
            raise FileFormatError(f"{self.path}: indices must be exactly 1..{index.size}")
        return order


def oracle_read_table(path, header, allow_empty=False) -> OracleTable:
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: unreadable CSV: {exc}") from exc
    if not rows:
        raise FileFormatError(f"{path}: empty file")
    if header is None:
        width, first_row = len(rows), 1
    else:
        got = [c.strip() for c in rows.pop(0)]
        expected = header(len(got)) if callable(header) else header
        if got != expected:
            raise FileFormatError(f"{path}: expected header {expected}, got {got}")
        width, first_row = len(expected), 2
    if not rows and not allow_empty:
        raise FileFormatError(f"{path}: no data rows")
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    ragged = np.flatnonzero(lengths != width)
    if ragged.size:
        r = int(ragged[0])
        raise FileFormatError(
            f"{path}: row {first_row + r} has {lengths[r]} columns, expected {width}"
        )
    return OracleTable(path, rows, width, first_row)


def oracle_read_coordinates(path):
    table = oracle_read_table(path, ["id", "x", "y"])
    ids = map(str.strip, map(operator.itemgetter(0), table.rows))
    return list(zip(ids, table.numbers(float, 1).tolist(), table.numbers(float, 2).tolist()))


def oracle_read_edge_list(path):
    table = oracle_read_table(path, ["i", "j"], allow_empty=True)
    return list(map(tuple, table.numbers(int).tolist()))


def oracle_read_signals(path):
    table = oracle_read_table(path, lambda n: [f"v{k}" for k in range(1, n + 1)])
    return SignalEnsemble(signals=table.numbers(), domain="vertex")


def oracle_read_covariance(path):
    return oracle_read_table(path, None).numbers()


def oracle_read_response(path):
    table = oracle_read_table(path, ["n", "gamma"])
    return table.numbers(float, 1)[table.index_order()]


def oracle_read_channel_estimate(path):
    table = oracle_read_table(path, ["n", "gamma_m", "in_support", "component", "is_anchor"])
    order = table.index_order()
    gamma = table.numbers(float, 1)[order]
    in_support, comp_id, is_anchor = (table.numbers(int, k)[order] for k in (2, 3, 4))
    gio._check_estimate_columns(table, order, in_support, comp_id, is_anchor)
    support = frozenset((np.flatnonzero(in_support != 0) + 1).tolist())
    anchors = (np.flatnonzero(is_anchor != 0) + 1).tolist()
    anchor_of = dict(zip(comp_id[is_anchor != 0].tolist(), anchors))
    components = []
    for cid in np.unique(comp_id[comp_id != 0]).tolist():
        vertices = tuple((np.flatnonzero(comp_id == cid) + 1).tolist())
        anchor = anchor_of[cid]
        components.append(Component(vertices, anchor, sign_of(gamma[anchor - 1]), {}))
    return ChannelEstimate(gamma_m=gamma, support=support, components=tuple(components))


def oracle_load_raw_dataset(path):
    table = oracle_read_table(path, ["station", "day", "hour", "value"])
    station, day, hour = cells = np.stack([table.numbers(int, k) for k in range(3)])
    value = table.numbers(float, 3)
    out_of_range = np.flatnonzero((station < 1) | (day < 1) | (hour < 0))
    if out_of_range.size:
        where = tuple(cells[:, out_of_range[0]].tolist())
        raise FileFormatError(f"{path}: indices out of range in row {where}")
    order = np.lexsort(cells[::-1])
    repeats = order[1:][np.all(np.diff(cells[:, order], axis=1) == 0, axis=0)]
    if repeats.size:
        where = tuple(cells[:, repeats.min()].tolist())
        raise FileFormatError(f"{path}: duplicate entry for {where}")
    n, d, t = int(station.max()), int(day.max()), int(hour.max()) + 1
    missing = n * d * t - value.size
    if missing:
        raise FileFormatError(f"{path}: incomplete grid, {missing} missing entries")
    values = np.empty((n, t, d))
    values[station - 1, hour, day - 1] = value
    return RawDataset(values=values)


def _plain(value):
    """Everything a reader returns, with arrays as (dtype, shape, bytes) so equality is bitwise."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, SignalEnsemble):
        return _plain(value.signals), value.domain
    if isinstance(value, RawDataset):
        return _plain(value.values)
    if isinstance(value, ChannelEstimate):
        return _plain(value.gamma_m), value.support, value.components
    if isinstance(value, list):
        return [tuple(float(x).hex() if isinstance(x, float) else x for x in row) for row in value]
    raise TypeError(type(value))


def outcome(read, path):
    try:
        return "read", _plain(read(path))
    except FileFormatError as exc:
        return "rejected", str(exc)


READERS = {
    "coords": (gio.read_coordinates, oracle_read_coordinates),
    "edges": (gio.read_edge_list, oracle_read_edge_list),
    "signals": (gio.read_signals, oracle_read_signals),
    "covariance": (gio.read_covariance, oracle_read_covariance),
    "response": (gio.read_response, oracle_read_response),
    "estimate": (gio.read_channel_estimate, oracle_read_channel_estimate),
    "raw": (load_raw_dataset, oracle_load_raw_dataset),
}


def assert_same(kind, path):
    read, oracle = READERS[kind]
    got, want = outcome(read, path), outcome(oracle, path)
    assert got == want, f"{kind} on {path.read_bytes()[:300]!r}"
    return got[0]


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """One valid file per reader, each with at least two data rows."""
    root = tmp_path_factory.mktemp("tables")
    rng = np.random.default_rng(40)
    m = rng.standard_normal((4, 3))
    gio.write_coordinates(root / "coords", [("s1", 0.25, -1.5), ("s 2", 1e-300, 3.0), ("s3", 2.0, 0.5)])
    gio.write_edge_list(root / "edges", {(1, 2), (2, 3), (1, 3)})
    gio.write_signals(root / "signals", SignalEnsemble(signals=m, domain="vertex"))
    gio.write_covariance(root / "covariance", m[:3].T @ m[:3])
    gio.write_response(root / "response", rng.standard_normal(4))
    gio.write_channel_estimate(
        root / "estimate",
        ChannelEstimate(
            gamma_m=np.array([1.5, -1.0, 0.5, 2.0]),
            support=frozenset({1, 2, 4}),
            components=(
                Component(vertices=(1, 2), anchor=1, anchor_sign=1, parents={2: 1}),
                Component(vertices=(4,), anchor=4, anchor_sign=1, parents={}),
            ),
        ),
    )
    values = rng.normal(15.0, 3.0, size=(2, 3, 2))
    lines = ["station,day,hour,value"] + [
        f"{s + 1},{d + 1},{h},{float(values[s, h, d])!r}" for s in range(2) for d in range(2) for h in range(3)
    ]
    (root / "raw").write_text("\n".join(lines) + "\n")
    return {kind: (root / kind).read_bytes() for kind in READERS}


CELLS = (*TOKENS, "1_000.5", " 2 ", '"1.5"', '"2"', "\u0661\u0662", "\uff11", "2.0", "1e5", "+1",
         "-0", "0x10", "inf", "1#2", "\u20031\u2003", "\xa01.5", "2\x0b", "\x1c2", "1\x00", " ", "\t",
         "4 5", "9223372036854775808", ".", "1e", "--1", "-.5E-3", "-0.0", "00.5", "5.", "1.2.3", "1.5-",
         "-1-.5", "0.10000000000000000555", "9007199254740993.0", "-1234567890.1234567",
         "0.00000000000000000000001", "12345678901234567890.5", "4.35", "1-2.5", "2\r")


def _cell_mutations(data: bytes, first: int, rng):
    """Every cell token at a random data row, ``first`` or later, of every column."""
    lines = data.decode().split("\n")[:-1]
    width = len(lines[-1].split(","))
    for token in CELLS:
        for col in range(width):
            r = int(rng.integers(first, len(lines)))
            cells = lines[r].split(",")
            cells[col] = token
            yield "\n".join(lines[:r] + [",".join(cells)] + lines[r + 1 :]) + "\n"


def _row_mutations(data: bytes, rng):
    """Line ends, whitespace-only, ragged, blank and header-only tables."""
    text = data.decode()
    lines = text.split("\n")[:-1]
    at = int(rng.integers(1, len(lines)))
    yield text.replace("\n", "\r\n")
    yield text.replace("\n", "\r")
    yield "\n".join(lines[:at]) + "\r" + "\n".join(lines[at:]) + "\n"
    yield "\n".join(lines[:at]) + "\r\r\n" + "\n".join(lines[at:]) + "\n"
    for filler in (" ", "\t", "   ", "\x0c", ",", "", "\r"):
        yield "\n".join(lines[:at] + [filler] + lines[at:]) + "\n"
    cells = lines[at].split(",")
    yield "\n".join(lines[:at] + [",".join(cells[:-1])] + lines[at + 1 :]) + "\n"
    yield "\n".join(lines[:at] + [",".join([*cells, cells[-1]])] + lines[at + 1 :]) + "\n"
    yield "\n" + text + "\n\n"
    yield lines[0] + "\n"
    yield lines[0]
    yield ""
    limit = csv.field_size_limit()
    yield "\n".join(lines[:at] + [" " * limit + lines[at]] + lines[at + 1 :]) + "\n"
    padded = ",".join(cell + " " * (limit // 2) for cell in cells)  # A long line of short cells.
    yield "\n".join(lines[:at] + [padded] + lines[at + 1 :]) + "\n"


@pytest.mark.parametrize("kind", list(READERS))
def test_mutated_tables_read_as_the_oracle_reads_them(tables, tmp_path, monkeypatch, kind):
    """Numeric tables must take the vectorised parse on some cases and
    Python's reader on others."""
    parses, parse = [], gio._parse_numeric
    floats, float_parse = [], gio._float_csv.parse

    def spy(*args):
        parses.append(parse(*args))
        return parses[-1]

    def float_spy(*args):
        floats.append(float_parse(*args))
        return floats[-1]

    monkeypatch.setattr(gio, "_parse_numeric", spy)
    monkeypatch.setattr(gio._float_csv, "parse", float_spy)
    original = tables[kind]
    rng = np.random.default_rng([sum(kind.encode()), 1])
    first_data_line = int(kind != "covariance")
    texts = chain(_cell_mutations(original, first_data_line, rng), _row_mutations(original, rng))
    cases = [text.encode() for text in texts]
    cases += [mutate(original, k, arg, rng) for _ in range(3) for k, arg in MUTATIONS]
    outcomes = set()
    for case, data in enumerate(cases):
        path = tmp_path / f"{case}.csv"
        path.write_bytes(data)
        outcomes.add(assert_same(kind, path))
    assert outcomes == {"read", "rejected"}
    assert {table is None for table in parses} == ({True} if kind == "coords" else {True, False})
    assert {values is None for values in floats} == (set() if kind == "coords" else {True, False})


@pytest.mark.parametrize("scale", [1.0, 1e-310, 1e300])
def test_written_matrices_read_back_bit_for_bit(tmp_path, scale):
    rng = np.random.default_rng(41)
    for m, n in [(1, 1), (3, 1), (1, 4), (30, 7)]:
        signals = rng.standard_normal((m, n)) * scale
        signals.flat[0] = -0.0
        gio.write_signals(tmp_path / "signals.csv", SignalEnsemble(signals=signals, domain="vertex"))
        assert_same("signals", tmp_path / "signals.csv")
        np.testing.assert_array_equal(gio.read_signals(tmp_path / "signals.csv").signals, signals)
        cov = rng.standard_normal((n, n)) * scale
        gio.write_covariance(tmp_path / "cov.csv", cov)
        assert_same("covariance", tmp_path / "cov.csv")
        assert gio.read_covariance(tmp_path / "cov.csv").tobytes() == cov.tobytes()


@st.composite
def raw_tables(draw):
    """A small long-format grid in shuffled row order, with some of: repeated
    cells holding other values, dropped rows, an out-of-range row and an index
    near the int64 limits."""
    n, d, t = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = st.floats(allow_nan=False, allow_infinity=False)
    cells = [[s, k, h] for s in range(1, n + 1) for k in range(1, d + 1) for h in range(t)]
    dropped = draw(st.sets(st.integers(0, len(cells) - 1), max_size=2))
    rows = [[*c, draw(values)] for i, c in enumerate(cells) if i not in dropped]

    def extra_row():
        return [*draw(st.sampled_from(cells)), draw(values)]

    rows += [extra_row() for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):  # Stations and days count from 1, hours from 0.
        rows.append(row := extra_row())
        col = draw(st.integers(0, 2))
        row[col] = draw(st.integers(-(2**63), 0 if col < 2 else -1))
    if draw(st.booleans()):
        rows.append(row := extra_row())
        row[draw(st.integers(0, 2))] = draw(st.integers(2**63 - 3, 2**63 - 1))
    rows = draw(st.permutations(rows))
    return "station,day,hour,value\n" + "".join(f"{s},{k},{h},{v!r}\n" for s, k, h, v in rows)


@given(raw_tables())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_raw_grids_read_as_the_oracle_reads_them(tmp_path, text):
    """Values and messages match, above all which of several repeated cells is named."""
    path = tmp_path / "raw.csv"
    path.write_text(text)
    assert_same("raw", path)


def test_load_raw_dataset_traces_under_five_megabytes(tmp_path):
    """96 stations x 31 days x 24 hours, 71,424 rows: the table is never
    held as rows of Python strings, nor its index columns as a sorted copy."""
    n, d, t = 96, 31, 24
    values = np.random.default_rng(42).normal(15.0, 3.0, size=(n, t, d))
    grid = values.tolist()
    path = tmp_path / "raw.csv"
    path.write_text(
        "station,day,hour,value\n"
        + "".join(f"{s + 1},{k + 1},{h},{grid[s][h][k]!r}\n" for s in range(n) for k in range(d) for h in range(t))
    )
    tracemalloc.start()
    try:
        raw = load_raw_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw.values.tobytes() == values.tobytes()
    assert peak <= 5e6, f"peak {peak / 1e6:.1f} MB"


# The bytes ``_float_csv.parse`` reads first, after the header.
CHUNK = gio._float_csv._CHUNK


def _read_both(kind, path, header, types=float):
    """The outcome, checked against the oracle, and whether the vectorised parse was kept."""
    return assert_same(kind, path), gio._parse_numeric(path, header, types) is not None


def _padded_row(length: int, end: str) -> str:
    """A signals row of exactly ``length`` characters, its line end included."""
    return " " * (length - len(end) - 8) + "1.5,-2.5" + end


@pytest.mark.parametrize("offset", [1, 2])
def test_separator_opening_a_later_chunk_goes_to_python(tmp_path, offset):
    """``\\x1c`` just after the end of the first read after the header, or of one a chunk later."""
    before = _padded_row(CHUNK * offset - 9, "\n") + "0.5,0.25\n"
    path = tmp_path / "signals.csv"
    path.write_text("v1,v2\n" + before + "\x1c1.5,-2.5\n" + "0.5,0.25\n" * 3, newline="")
    assert len(before) == CHUNK * offset
    assert _read_both("signals", path, gio._signals_header) == ("rejected", False)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("shift", [0, 1, 4321])
def test_line_of_the_field_size_limit_across_chunks(tmp_path, end, extra, shift):
    """A line of ``field_size_limit()`` characters, its line end counted, and
    one a character longer, each longer than a read, whether it ends on the
    last character of the first read (``shift`` 0), just after it (1: a
    ``\\r\\n`` split between reads) or anywhere else; every table reads as the
    oracle reads it, and only a lone ``\\r`` leaves it to Python's reader."""
    length = csv.field_size_limit() + extra
    before = (shift - length) % CHUNK + CHUNK
    text = _padded_row(before, end) + _padded_row(length, end) + ("0.5,0.25" + end) * 3
    path = tmp_path / "signals.csv"
    path.write_text("v1,v2" + end + text, newline="")
    assert _read_both("signals", path, gio._signals_header) == ("read", end != "\r")


@pytest.mark.parametrize("end", ["\r", "\r\n"])
def test_line_ends_of_a_table_of_many_chunks(tables, tmp_path, end):
    cells = [(s, k, h) for s in range(1, 21) for k in range(1, 31) for h in range(24)]
    path = tmp_path / "raw.csv"
    path.write_text(_raw_text([(*c, i / 7) for i, c in enumerate(cells)]).replace("\n", end), newline="")
    assert path.stat().st_size > 3 * CHUNK
    header, types = ["station", "day", "hour", "value"], (int, int, int, float)
    assert _read_both("raw", path, header, types) == ("read", end == "\r\n")
    path.write_text(tables["covariance"].decode().replace("\n", end), newline="")
    assert _read_both("covariance", path, None) == ("read", end == "\r\n")


@pytest.mark.parametrize("blank", ["\n", "\r\n", "\r", "\n\r\n\r\n\n"])
def test_blank_lines_before_the_header_are_skipped(tables, tmp_path, blank):
    path = tmp_path / "signals.csv"
    path.write_bytes(blank.encode() + tables["signals"])
    assert _read_both("signals", path, gio._signals_header) == ("read", True)


@pytest.mark.parametrize(
    "header, outcome",
    [('"v1",v2\n', "read"), ('"\nv1",v2\n', "read"), ('"v1\nv2",v3\n', "rejected"), ('v1,"v2\n', "rejected")],
)
def test_quoted_header_goes_to_python(tmp_path, header, outcome):
    """A quoted header cell may span lines, which only ``csv.reader`` follows."""
    path = tmp_path / "signals.csv"
    path.write_text(header + "1.5,-2.5\n0.5,0.25\n", newline="")
    assert _read_both("signals", path, gio._signals_header) == (outcome, False)


def _raw_text(rows) -> str:
    return "station,day,hour,value\n" + "".join(f"{s},{k},{h},{v!r}\n" for s, k, h, v in rows)


def test_repeat_in_a_grid_with_a_gap(tmp_path):
    """As many rows as cells, but one cell twice and one never: the repeat is named."""
    cells = [(s, k, h) for s in (1, 2) for k in (1, 2) for h in (0, 1)]
    rows = [(*c, float(i)) for i, c in enumerate(cells) if c != (2, 1, 1)] + [(1, 2, 0, 9.5)]
    path = tmp_path / "raw.csv"
    path.write_text(_raw_text(rows))
    assert assert_same("raw", path) == "rejected"
    with pytest.raises(FileFormatError, match=r"duplicate entry for \(1, 2, 0\)"):
        load_raw_dataset(path)


def test_sparse_repeat_near_the_int64_limit(tmp_path):
    top = 2**63 - 1
    rows = [(top, 1, 0, 1.0), (1, top - 1, 5, 2.0), (2, 3, top, 3.0), (top, 1, 0, 4.0), (1, top - 1, 5, 5.0)]
    path = tmp_path / "raw.csv"
    path.write_text(_raw_text(rows))
    assert assert_same("raw", path) == "rejected"
    with pytest.raises(FileFormatError, match=rf"duplicate entry for \({top}, 1, 0\)"):
        load_raw_dataset(path)


def test_valid_grid_is_checked_without_the_repeat_search(tmp_path, monkeypatch):
    rng = np.random.default_rng(43)
    cells = [(s, k, h) for s in (1, 2, 3) for k in (1, 2) for h in (0, 1, 2, 3)]
    rows = [(*cells[i], float(rng.normal())) for i in rng.permutation(len(cells))]
    path = tmp_path / "raw.csv"
    path.write_text(_raw_text(rows))
    monkeypatch.setattr(gio, "_first_repeat", lambda cells: pytest.fail("a valid grid was searched"))
    assert assert_same("raw", path) == "read"


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"])
@pytest.mark.parametrize("blanks", [0, 1, 3])
def test_blank_lines_and_line_ends_before_the_data(tables, tmp_path, end, blanks):
    """Blank lines before the header are skipped; only lone ``\\r`` line ends leave the parse."""
    path = tmp_path / "signals.csv"
    path.write_text(end * blanks + tables["signals"].decode().replace("\n", end), newline="")
    assert _read_both("signals", path, gio._signals_header) == ("read", end != "\r")


@pytest.mark.parametrize("blank, kept", [("", True), ("\n", True), ("\r\n\n", True), ("\r\n\r", False)])
def test_headerless_table_is_read_from_its_first_line(tables, tmp_path, blank, kept):
    """After a line that ends in a lone ``\\r`` the text decoder holds state,
    so ``tell()`` is not a byte offset and Python's reader reads the table."""
    path = tmp_path / "covariance.csv"
    path.write_text(blank + tables["covariance"].decode(), newline="")
    assert _read_both("covariance", path, None) == ("read", kept)


@pytest.mark.parametrize("kind", ["signals", "covariance", "raw", "estimate", "response", "edges"])
def test_str_pathlib_and_bytes_paths_read_alike(tables, tmp_path, kind):
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(tables[kind])
    read = READERS[kind][0]
    got = [_plain(read(p)) for p in (path, str(path), os.fsencode(path))]
    assert got[0] == got[1] == got[2] == _plain(READERS[kind][1](path))


@pytest.mark.parametrize("suffix", [".bz2", ".gz", ".lzma", ".xz"])
def test_plain_table_named_like_a_compressed_file_reads_as_plain_text(tables, tmp_path, suffix):
    """numpy would have opened it through a decompressor."""
    path = tmp_path / f"covariance.csv{suffix}"
    path.write_bytes(tables["covariance"])
    assert _read_both("covariance", path, None) == ("read", True)


@pytest.mark.skipif(os.name == "nt", reason="':' cannot be part of a Windows file name")
def test_relative_name_that_parses_as_a_url_is_read_as_a_file(tables, tmp_path, monkeypatch):
    """numpy would have fetched a name with a scheme and a host, even one that names a local file."""
    import urllib.request

    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: pytest.fail("a table was fetched"))
    (tmp_path / "http:" / "host").mkdir(parents=True)
    (tmp_path / "http:" / "host" / "covariance.csv").write_bytes(tables["covariance"])
    monkeypatch.chdir(tmp_path)
    path = "http://host/covariance.csv"
    assert _plain(gio.read_covariance(path)) == _plain(oracle_read_covariance(path))


# The most digits ``int`` parses, 0 where it has no limit; CI also runs this
# module under ``-X int_max_str_digits=640``, so that the parse's ``int`` of a
# long cell is checked to refuse what the oracle refuses at a second limit.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_int_cell_longer_than_int_parses_goes_to_python(tmp_path):
    """5,000 zeros and a 1, which ``int`` refuses under its default digit limit."""
    path = tmp_path / "edges.csv"
    path.write_text("i,j\n" + "0" * 5000 + "1,2\n")
    assert assert_same("edges", path) == ("rejected" if 0 < INT_DIGITS < 5001 else "read")


@pytest.mark.parametrize("digits", sorted({4300, 4301, INT_DIGITS or 4300, (INT_DIGITS or 4300) + 1}))
@pytest.mark.parametrize("kind", ["edges", "response", "estimate", "raw"])
def test_int_cells_at_the_digit_limit_read_as_the_oracle_reads_them(tables, tmp_path, kind, digits):
    """The first int cell of the first data row, zero-padded to ``digits`` digits."""
    lines = tables[kind].decode().split("\n")
    cells = lines[1].split(",")
    cells[0] = cells[0].zfill(digits)
    lines[1] = ",".join(cells)
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines))
    assert assert_same(kind, path) == ("rejected" if 0 < INT_DIGITS < digits else "read")


def test_long_float_cell_is_read_by_the_parse(tmp_path):
    """``float`` has no digit limit."""
    path = tmp_path / "signals.csv"
    path.write_text("v1,v2\n" + "0" * 5000 + "1.5,-2.5\n0.5,0.25\n")
    assert _read_both("signals", path, gio._signals_header) == ("read", True)


@pytest.mark.parametrize("split", [1, 2500, 4999])
def test_int_cell_of_zeros_across_a_chunk_end_goes_to_python(tmp_path, split):
    """5,000 zeros and a 1, ``split`` of the zeros before the end of the first read after the header."""
    offset = CHUNK - split
    before = "1,2\n" * (offset // 4 - 1) + "1," + "2" * (1 + offset % 4) + "\n"
    assert len(before) == offset
    path = tmp_path / "edges.csv"
    path.write_text("i,j\n" + before + "0" * 5000 + "1,2\n")
    outcome = ("rejected", False) if 0 < INT_DIGITS < 5001 else ("read", True)
    assert _read_both("edges", path, ["i", "j"], int) == outcome


def test_no_reader_calls_numpy_loadtxt(tables, tmp_path, monkeypatch):
    """Every reader, by ``str``, ``pathlib`` and bytes paths, and under names
    numpy would decompress or fetch, with blank lines and either line end."""
    import urllib.request

    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("np.loadtxt parsed a table"))
    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: pytest.fail("a table was fetched"))
    for kind in READERS:
        for name, data in [("plain.csv", tables[kind]), ("blank.csv.gz", b"\n\r\n" + tables[kind]),
                           ("crlf.csv.xz", tables[kind].replace(b"\n", b"\r\n"))]:
            path = tmp_path / f"{kind}-{name}"
            path.write_bytes(data)
            read, oracle = READERS[kind]
            got = [_plain(read(p)) for p in (path, str(path), os.fsencode(path))]
            assert got[0] == got[1] == got[2] == _plain(oracle(path))
    if os.name != "nt":  # ':' cannot be part of a Windows file name
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "raw.csv").write_bytes(tables["raw"])
        monkeypatch.chdir(tmp_path)
        path = "http://host/raw.csv"
        assert _plain(load_raw_dataset(path)) == _plain(oracle_load_raw_dataset(path))


@pytest.mark.parametrize("late, outcome", [("1e-05", ("read", False)), ("abc", ("rejected", False))])
def test_float_table_the_parse_leaves_in_a_later_chunk(tmp_path, late, outcome):
    """A table whose later chunk the parse refuses, for its exponent cells or
    for a cell ``float`` refuses, is read by Python's reader from its first row."""
    chunk = gio._float_csv._CHUNK
    rows = np.random.default_rng(44).normal(0.0, 1.0, (chunk // 70, 4)).tolist()
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    assert len(text) > chunk
    text += f"{late},{late},{late},0.5\n" * (chunk // 20 if late == "1e-05" else 1)
    path = tmp_path / "signals.csv"
    path.write_text("\n\nv1,v2,v3,v4\n" + text)
    assert _read_both("signals", path, gio._signals_header) == outcome


@pytest.mark.parametrize(
    "kind, text",
    [("covariance", "4\n"), ("covariance", "4"), ("covariance", "-4\n"), ("covariance", "-4.5"),
     ("covariance", "4\n5\n"), ("signals", "v1\n7"), ("signals", "v1\n7\n"), ("signals", "v1\n-7\n8\n"),
     ("signals", "v1\n7\n8.5\n"), ("signals", "v1,v2\n7,8\n")],
)
def test_small_tables_of_whole_numbers_read_as_the_oracle_reads_them(tmp_path, kind, text):
    """A chunk whose only non-digit bytes are its line ends, and tables close to it."""
    path = tmp_path / f"{kind}.csv"
    path.write_text(text)
    assert assert_same(kind, path) in {"read", "rejected"}


@given(
    st.lists(st.sampled_from(["0", "7", "-4", "12", "4.5", "-0.0", "1e5", "-", ".", "-7.", "x"]), min_size=1,
             max_size=9),
    st.integers(1, 3),
    st.booleans(),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_small_float_tables_read_as_the_oracle_reads_them(tmp_path, cells, width, end):
    """Tables of one to three columns and a few short cells, with and without a last line end."""
    rows = [",".join(cells[i : i + width]) for i in range(0, len(cells), width)]
    body = "\n".join(rows) + ("\n" if end else "")
    (tmp_path / "covariance.csv").write_text(body)
    assert_same("covariance", tmp_path / "covariance.csv")
    header = ",".join(f"v{k}" for k in range(1, width + 1))
    (tmp_path / "signals.csv").write_text(header + "\n" + body)
    assert_same("signals", tmp_path / "signals.csv")


INT_CELLS = ["9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
             "1234567890123456789", "12345678901234567890", "-0", "007", "+5", " 5", "1_0", "2.0", "5."]


@pytest.mark.parametrize("cell", INT_CELLS)
@pytest.mark.parametrize("kind", ["edges", "response", "estimate", "raw"])
def test_int_cells_read_as_the_oracle_reads_them(tables, tmp_path, kind, cell):
    """``cell`` in each int column, a column at a time, in the first data row and in the last."""
    lines = tables[kind].decode().split("\n")
    columns = {"edges": [0, 1], "response": [0], "estimate": [0, 2, 3, 4], "raw": [0, 1, 2]}[kind]
    for row in (1, len(lines) - 2):
        for col in columns:
            cells = lines[row].split(",")
            cells[col] = cell
            path = tmp_path / f"{kind}-{row}-{col}.csv"
            path.write_text("\n".join(lines[:row] + [",".join(cells)] + lines[row + 1 :]))
            assert_same(kind, path)


def test_first_read_ending_between_cr_and_lf_reads_as_lf(tmp_path):
    """A raw table with ``\\r\\n`` line ends whose first read after the header
    ends on a ``\\r``, and the same table with one lone ``\\r`` in the middle,
    which ends a line for ``csv.reader`` but leaves the parse."""
    cells = [(s, k, h) for s in range(1, 11) for k in range(1, 31) for h in range(24)]
    rows = [f"{s},{k},{h},{i / 7!r}\r\n" for i, (s, k, h) in enumerate(cells)]
    ends = np.cumsum([len(row) for row in rows]) - 2  # the byte of each row's "\r"
    shift = CHUNK - 1 - ends[ends < CHUNK - 1][-1]
    rows[0] = rows[0].replace(",", "," + "0" * shift, 1)  # the first day, zero-padded
    header = "station,day,hour,value\r\n"
    text = header + "".join(rows)
    assert text[len(header) + CHUNK - 1 :][:2] == "\r\n"
    path = tmp_path / "raw.csv"
    path.write_bytes(text.encode())
    header, types = ["station", "day", "hour", "value"], (int, int, int, float)
    assert _read_both("raw", path, header, types) == ("read", True)
    middle = text.index("\r\n", len(text) // 2)
    path.write_bytes((text[:middle] + "\r" + text[middle + 2 :]).encode())
    assert _read_both("raw", path, header, types) == ("read", False)
