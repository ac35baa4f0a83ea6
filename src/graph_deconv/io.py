"""File formats: every file the package reads or writes, dataset ingestion, and centering.

Vertex indices in files are 1-based. CSV tables go through ``_read_table`` and
``_write_table``: blank lines are skipped, a numeric cell is a finite number in
Python's ``float`` grammar (``int`` grammar within int64 for index columns),
and floats are written as ``repr(float(x))`` with ``\\n`` line endings; a
NaN or an infinity raises ``ValueError`` before its file is opened. The float
matrices (signals and covariances) are rendered a block of rows at a time by
``_float_csv``, numpy arithmetic that follows Giulietti's Schubfach ("The
Schubfach way to render doubles", 2020) to the digits ``repr`` prints, byte
for byte, as ``tests/test_float_csv.py`` checks against ``repr`` itself;
every other table goes through ``csv.writer``.
Every numeric table is read by one of two readers. The first is
``_float_csv.parse``: after the header, the bytes are read in chunks of
whole rows, and a cell in ``repr``'s fixed layout or an int cell is parsed
by vectorised integer arithmetic, exact to the bit, every other cell by
``float`` or ``int`` of its text. A table it refuses, and a table with a
text column, is read cell by cell with ``csv.reader``, ``float`` and
``int``, so the grammar, the messages and the values are those of Python's
reader whichever reads it (README, "File formats", times both). JSON
files go through ``read_json`` and ``write_json``: indent 2, trailing
newline. Writers make a missing parent directory only once their checks
pass. A file that breaks its format raises ``FileFormatError`` naming the
file and, in a table, the row. A channel estimate is one CSV; its
spanning-tree parent maps exist only in memory (``Component.parents``).
"""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass
from functools import cache
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _float_csv
from .covariance import BoundCheck
from .errors import FileFormatError
from .estimation import ChannelEstimate, Component, sign_of
from .spectral import VERTEX, SignalEnsemble, _labels, _owned, _Taken, _Value

_ESTIMATE_HEADER = ["n", "gamma_m", "in_support", "component", "is_anchor"]


class _Table(NamedTuple):
    """The data rows of a checked CSV table and the file row number of the first.

    ``types`` holds the grammar of each column's cells: ``float``, ``int``, or
    ``str`` for a text column. ``parsed`` is the vectorised parse of a numeric
    table, rows x width or one structured field per column; ``rows`` holds
    the cells as text when that parse was not used.
    """

    path: object
    types: tuple
    first_row: int
    rows: list[list[str]] | None = None
    parsed: np.ndarray | None = None

    def numbers(self, col=None) -> np.ndarray:
        """Column ``col``, or the whole table as rows x width, as float64 or int64.

        The column's type, ``float`` or ``int``, is the grammar of a cell. The
        first cell that does not parse, fit int64 or is finite is named by its
        row and column.
        """
        if self.parsed is not None:
            if col is None:
                return self.parsed
            names = self.parsed.dtype.names
            return self.parsed[:, col] if names is None else self.parsed[names[col]]
        dtype = self.types[0 if col is None else col]
        width = len(self.types)
        rows = iter(self.rows)
        cells = chain.from_iterable(rows) if col is None else map(operator.itemgetter(col), rows)
        count = len(self.rows) * (width if col is None else 1)
        try:
            values = np.fromiter(map(dtype, cells), np.float64 if dtype is float else np.int64, count)
        except (ValueError, OverflowError):
            # The row iterator has just handed over the row of the bad cell.
            r = len(self.rows) - operator.length_hint(rows) - 1
            if col is None:  # Parse that row a column at a time; the bad column raises.
                row = self._replace(rows=self.rows[r : r + 1], first_row=self.first_row + r)
                for c in range(width):
                    row.numbers(c)
            problem = "not a number" if dtype is float else "not an int64 integer"
        else:
            bad = np.flatnonzero(~np.isfinite(values))
            if not bad.size:
                return values if col is not None else values.reshape(-1, width)
            r, problem = int(bad[0]), "non-finite value"
            if col is None:
                r, col = divmod(r, width)
        raise FileFormatError(
            f"{self.path}: row {self.first_row + r}, column {col + 1}: "
            f"{problem}: {self.rows[r][col]!r}"
        )

    def index_order(self) -> np.ndarray:
        """The row order that sorts column 0, which must hold exactly 1..rows."""
        index = self.numbers(0)
        order = np.argsort(index)
        if not np.array_equal(index[order], np.arange(1, index.size + 1)):
            raise FileFormatError(f"{self.path}: indices must be exactly 1..{index.size}")
        return order


def _read_table(path, header, types=float, allow_empty: bool = False) -> _Table:
    """Read a CSV table and check its shape.

    ``header`` is the expected header row, a function from the header's width
    to that row, or None for a headerless square table. ``types`` is the
    grammar of every cell, ``float`` or ``int``, or a tuple with one per
    column (``str`` for a text column). Blank lines are skipped and header
    cells compared stripped; every data row must be as wide as the header (a
    headerless table: as wide as it is long).

    A numeric table is parsed by ``_float_csv.parse`` (``_parse_numeric``).
    Anything it refuses, and a table with a text column, is read again by
    ``csv.reader`` and Python's ``float`` and ``int``, which decide what is
    accepted and name what is not.
    """
    table = _parse_numeric(path, header, types)
    if table is not None:
        return table
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
    return _Table(path, _per_column(types, width), first_row, rows=rows)


def _per_column(types, width: int) -> tuple:
    return types if isinstance(types, tuple) else (types,) * width


def _parse_numeric(path, header, types) -> _Table | None:
    """The table as ``_float_csv.parse`` reads it, or None where Python's reader must decide.

    The blank lines before the first row are skipped, as ``csv.reader``
    skips them, and then the header line is read; a header holding a quote,
    which may span lines, is left to Python's reader. The rest of the file
    is handed to ``_float_csv.parse`` as bytes (``_parsed_rows``), which
    returns ``float`` or ``int`` of every cell or None. None is also
    returned for a header other than ``header``, a text column, or text that
    is not valid in the file's encoding.
    """
    if str in _per_column(types, 1):
        return None
    try:
        with open(path, newline="") as fh:
            width, at, line = None, fh.tell(), fh.readline()
            while line in ("\n", "\r", "\r\n"):
                at, line = fh.tell(), fh.readline()
            if header is None:
                fh.seek(at)
            else:
                if '"' in line:
                    return None
                got = [c.strip() for c in next(csv.reader([line]), ())]
                if not got or got != (header(len(got)) if callable(header) else header):
                    return None
                width = len(got)
            values = _parsed_rows(fh, None if width is None else _per_column(types, width))
    except (csv.Error, ValueError):
        return None
    if values is None:
        return None
    columns = types if isinstance(types, tuple) else (types,) * values.shape[1]
    return _Table(path, columns, 1 if header is None else 2, parsed=values)


def _parsed_rows(fh, types: tuple | None) -> np.ndarray | None:
    """``_float_csv.parse`` of the bytes after the text ``fh`` has read, or None.

    The bytes are the text exactly when the encoding decodes every ASCII byte
    as itself, and parse returns None on any other byte. ``fh.tell()`` packs
    the decoder's state above the low 64 bits of the byte offset, so a
    position with none is where the bytes start.
    """
    if not _ascii_as_itself(fh.encoding):
        return None
    at = fh.tell()
    if at >> 64:
        return None
    fh.buffer.seek(at)
    return _float_csv.parse(fh.buffer, types)


@cache
def _ascii_as_itself(encoding: str) -> bool:
    """Whether ``encoding`` decodes every byte below 0x80 as that ASCII character."""
    ascii_bytes = bytes(range(128))
    try:
        return ascii_bytes.decode(encoding) == ascii_bytes.decode("ascii")
    except (LookupError, UnicodeDecodeError):
        return False


def _write_table(path, header, rows) -> None:
    """Write a CSV table: ``header`` unless None, then ``rows``; a float is its ``repr``.

    ``rows`` is either a finite float64 matrix, rendered by ``_float_csv`` a
    block of whole rows at a time, or an iterable of rows for ``csv.writer``,
    which writes a float as its ``repr``, an int as its ``str`` and quotes
    strings as CSV needs.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if header is not None:
            w.writerow(header)
        if isinstance(rows, np.ndarray):
            fh.writelines(_float_csv.blocks(rows))
        else:
            w.writerows(rows)


def _finite(path, values, row: int, col: int = 1) -> np.ndarray:
    """``values``, a column or a matrix, as float64, checked before ``path`` is opened.

    ``values`` is written to ``path`` from file row ``row`` and column ``col``
    on. A NaN or an infinity raises ``ValueError`` naming its row and column.
    """
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(finite.argmin())
        r, c = divmod(k, values.shape[1]) if values.ndim == 2 else (k, 0)
        raise ValueError(
            f"{path}: row {row + r}, column {col + c}: "
            f"non-finite value {float(values.flat[k])!r} cannot be written"
        )
    return values


def _matrix(path, values, row: int, square: bool = False) -> np.ndarray:
    """``_finite`` for a table of rows: a 2-D array of at least one column, square if ``square``.

    Any other shape raises ``ValueError`` naming ``path`` and the shape,
    before ``path`` is opened: a table with no columns is written as blank
    lines or nothing, which read back as an empty file.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or (square and values.shape[0] != values.shape[1]):
        kind = "a square matrix" if square else "a 2-D table"
        raise ValueError(f"{path}: expected {kind}, got shape {values.shape}")
    if not values.shape[1]:
        raise ValueError(f"{path}: expected at least one column, got shape {values.shape}")
    return _finite(path, values, row)


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc


def write_json(path, payload) -> None:
    """Indented JSON; a NaN or an infinity raises ``ValueError`` before the file is opened."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_coordinates(path) -> list[tuple[str, float, float]]:
    table = _read_table(path, ["id", "x", "y"], (str, float, float))
    ids = map(str.strip, map(operator.itemgetter(0), table.rows))
    return list(zip(ids, table.numbers(1).tolist(), table.numbers(2).tolist()))


def write_coordinates(path, coords) -> None:
    ids, x, y = zip(*coords) if coords else ((), (), ())
    x, y = _finite(path, x, 2, 2).tolist(), _finite(path, y, 2, 3).tolist()
    _write_table(path, ["id", "x", "y"], zip(ids, x, y))


def read_edge_list(path) -> list[tuple[int, int]]:
    table = _read_table(path, ["i", "j"], int, allow_empty=True)
    return list(map(tuple, table.numbers().tolist()))


def write_edge_list(path, edges) -> None:
    _write_table(path, ["i", "j"], sorted(edges))


def _signals_header(n: int) -> list[str]:
    return [f"v{k}" for k in range(1, n + 1)]


def read_signals(path) -> SignalEnsemble:
    table = _read_table(path, _signals_header)
    return SignalEnsemble(signals=_Taken(table.numbers()), domain=VERTEX)  # the table is ours alone


def write_signals(path, e: SignalEnsemble) -> None:
    _write_table(path, _signals_header(e.n_vertices), _matrix(path, e.signals, 2))


def read_covariance(path) -> np.ndarray:
    return _read_table(path, None).numbers()


def write_covariance(path, cov: np.ndarray) -> None:
    _write_table(path, None, _matrix(path, cov, 1, square=True))


def write_reconstruction(signals_path, e: SignalEnsemble, cov_path, cov: np.ndarray) -> None:
    """``write_signals`` and ``write_covariance``, or neither when either table is refused."""
    signals, cov = _matrix(signals_path, e.signals, 2), _matrix(cov_path, cov, 1, square=True)
    _write_table(signals_path, _signals_header(e.n_vertices), signals)
    _write_table(cov_path, None, cov)


def read_response(path) -> np.ndarray:
    table = _read_table(path, ["n", "gamma"], (int, float))
    return table.numbers(1)[table.index_order()]


def write_response(path, gamma) -> None:
    _write_table(path, ["n", "gamma"], enumerate(_finite(path, np.ravel(gamma), 2, 2).tolist(), start=1))


def write_eigenvalues(path, eigenvalues) -> None:
    _write_table(path, ["n", "lambda"], enumerate(_finite(path, eigenvalues, 2, 2).tolist(), start=1))


def write_channel_estimate(csv_path, estimate: ChannelEstimate) -> None:
    """Write the estimate's CSV, the whole record of its support, components and anchors.

    An estimate the CSV would read back changed raises ``ValueError`` naming
    the vertex, before the file is opened: a component vertex that is not an
    integer in 1..N or is listed twice, component vertices not strictly
    ascending, an anchor outside its component, an anchor sign other than
    ``sign_of`` its response (so a zero or -0.0 anchor response carries +1),
    or a support other than the components' union. Parent maps are not
    written, and anchor signs are read back from the responses.
    """
    n = estimate.n_vertices

    def fail(v, problem: str):
        raise ValueError(f"{csv_path}: vertex {v} {problem}; the estimate cannot be written")

    flags = np.zeros((3, n), dtype=int)  # in_support, component, is_anchor
    for k, comp in enumerate(estimate.components, start=1):
        for v in _labels(comp.vertices, n, f"{csv_path}: component {k} vertex"):
            if flags[1, v - 1]:
                fail(v, f"is listed in component {flags[1, v - 1]} and again in component {k}")
            flags[1, v - 1] = k
        for before, v in zip(comp.vertices, comp.vertices[1:]):
            if v <= before:
                fail(v, f"follows vertex {before} in component {k}, whose vertices must ascend")
        if comp.anchor not in comp.vertices:
            fail(comp.anchor, f"is the anchor of component {k} but not one of its vertices")
        response = float(estimate.gamma_m[comp.anchor - 1])
        if comp.anchor_sign != sign_of(response):
            fail(
                comp.anchor,
                f"anchors component {k} with sign {comp.anchor_sign}, "
                f"but its response {response!r} has sign {sign_of(response):+d}",
            )
        flags[2, comp.anchor - 1] = 1
    listed = set(_vertices(flags[1]))
    for v in sorted(listed ^ estimate.support)[:1]:
        fail(v, "is in a component but not in the support" if v in listed else "is in the support but no component")
    flags[0] = flags[1] != 0
    rows = zip(range(1, n + 1), _finite(csv_path, estimate.gamma_m, 2, 2).tolist(), *flags.tolist())
    _write_table(csv_path, _ESTIMATE_HEADER, rows)


def _vertices(mask: np.ndarray) -> list[int]:
    """The 1-based vertices where ``mask`` is set."""
    return (np.flatnonzero(mask) + 1).tolist()


def read_channel_estimate(csv_path, json_path=None) -> ChannelEstimate:
    """Rebuild an estimate from its CSV, the whole record of its support and components.

    Membership and anchors come from the ``component`` and ``is_anchor``
    columns, with each component's vertices ascending, and each anchor's sign
    from its response. Spanning-tree parent maps exist only in memory, so
    ``parents`` comes back empty. ``json_path`` is retired: it is accepted
    and never opened, so a leftover sidecar file is ignored.

    ``FileFormatError`` is raised, naming the row, for columns that
    contradict each other: ``in_support`` set on a row whose ``component`` is
    zero or the reverse, an ``is_anchor`` row outside every component, or a
    component without exactly one ``is_anchor`` row.
    """
    table = _read_table(csv_path, _ESTIMATE_HEADER, (int, float, int, int, int))
    order = table.index_order()
    gamma = table.numbers(1)[order]
    in_support, comp_id, is_anchor = (table.numbers(k)[order] for k in (2, 3, 4))
    _check_estimate_columns(table, order, in_support, comp_id, is_anchor)
    anchor_of = dict(zip(comp_id[is_anchor != 0].tolist(), _vertices(is_anchor != 0)))
    components = []
    for cid in np.unique(comp_id[comp_id != 0]).tolist():
        anchor = anchor_of[cid]
        components.append(Component(tuple(_vertices(comp_id == cid)), anchor, sign_of(gamma[anchor - 1]), {}))
    support = frozenset(_vertices(in_support != 0))
    return ChannelEstimate(gamma_m=gamma, support=support, components=tuple(components))


def _check_estimate_columns(table: _Table, order, in_support, comp_id, is_anchor) -> None:
    """Reject ``in_support``, ``component`` and ``is_anchor`` columns that contradict each other.

    The columns are in vertex order; ``order`` maps a vertex back to its data row.
    """

    def fail(k: int, problem: str):
        raise FileFormatError(f"{table.path}: row {table.first_row + order[k]}: vertex {k + 1} {problem}")

    member = comp_id != 0
    for k in np.flatnonzero(member != (in_support != 0))[:1]:
        fail(k, f"has in_support {in_support[k]} but component {comp_id[k]}")
    for k in np.flatnonzero((is_anchor != 0) & ~member)[:1]:
        fail(k, "is an anchor outside every component")
    for cid in np.unique(comp_id[member]).tolist():
        anchors = np.flatnonzero((comp_id == cid) & (is_anchor != 0))
        if anchors.size != 1:
            k = anchors[1] if anchors.size else np.argmax(comp_id == cid)
            fail(k, f"is in component {cid}, which has {anchors.size} is_anchor rows, not 1")


def write_bound_report(path, report: list[BoundCheck]) -> None:
    stats = _finite(path, [[c.eps, c.empirical, c.bound] for c in report], 2, 3).tolist()
    rows = ((c.n, c.nprime, *s, int(c.flag)) for c, s in zip(report, stats))
    _write_table(path, ["n", "nprime", "eps", "empirical", "bound", "flag"], rows)


@dataclass(frozen=True)
class RawDataset(_Value):
    """Complete station x hour x day grid of measurements, e.g. hourly temperatures.

    ``values`` is kept as a read-only copy.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _owned(self.values, float)
        if arr.ndim != 3:
            raise ValueError(f"values must be station x hour x day, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("dataset is empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("dataset has missing or non-finite entries")
        object.__setattr__(self, "values", arr)

    @property
    def n_stations(self) -> int:
        return self.values.shape[0]

    @property
    def n_hours(self) -> int:
        return self.values.shape[1]

    @property
    def n_days(self) -> int:
        return self.values.shape[2]


def _first_repeat(cells) -> int | None:
    """The first row whose cell, its values across ``cells``, an earlier row already holds.

    A stable sort by cell puts every row right after the earlier rows that
    hold its cell, so a row equal to its sorted predecessor repeats one.
    Sorted neighbours are compared a column at a time into one mask.
    """
    order = np.lexsort(cells[::-1])
    repeated = np.ones(order.size - 1, dtype=bool)
    for c in cells:
        sorted_c = c[order]
        repeated &= sorted_c[1:] == sorted_c[:-1]
    return int(order[1:][repeated].min()) if repeated.any() else None


def _filled_grid(cells, value, n: int, d: int, t: int) -> np.ndarray | None:
    """The n x t x d grid of ``value``, or None unless the rows fill every cell exactly once.

    A table of n * d * t rows does that exactly when its rows mark every
    cell. Each row's flat index into the grid is built in place in one int64
    column; every station, day and hour is in range, so the index lies in
    the grid and cannot overflow.
    """
    if n * d * t != value.size:
        return None
    station, day, hour = cells
    cell = station - 1
    cell *= t
    cell += hour
    cell *= d
    cell += day
    cell -= 1
    marked = np.zeros(value.size, dtype=bool)
    marked[cell] = True
    if not marked.all():
        return None
    values = np.empty((n, t, d))
    values.reshape(-1)[cell] = value
    return values


def load_raw_dataset(path) -> RawDataset:
    """Read a long-format CSV with columns station,day,hour,value.

    Stations and days are numbered from 1, hours from 0. The grid must be
    complete: every (station, day, hour) combination exactly once. A
    repeated cell is reported for the first row, in file order, whose cell an
    earlier row already holds.

    With N stations, D days and T hours as the largest indices give them, a
    table of N * D * T rows is a valid grid exactly when its rows mark every
    cell, so it is checked with one flag per cell and no sort
    (``_filled_grid``). Only a table that fails that check is searched for
    its first repeat (``_first_repeat``) and its missing count, which name
    what is wrong.
    """
    table = _read_table(path, ["station", "day", "hour", "value"], (int, int, int, float))
    cells = station, day, hour = [table.numbers(k) for k in range(3)]
    value = table.numbers(3)
    out_of_range = np.flatnonzero((station < 1) | (day < 1) | (hour < 0))
    if out_of_range.size:
        where = tuple(int(c[out_of_range[0]]) for c in cells)
        raise FileFormatError(f"{path}: indices out of range in row {where}")
    n, d, t = int(station.max()), int(day.max()), int(hour.max()) + 1
    values = _filled_grid(cells, value, n, d, t)
    if values is None:
        row = _first_repeat(cells)
        if row is not None:
            where = tuple(int(c[row]) for c in cells)
            raise FileFormatError(f"{path}: duplicate entry for {where}")
        raise FileFormatError(f"{path}: incomplete grid, {n * d * t - value.size} missing entries")
    return RawDataset(values=values)


def center_dataset(raw: RawDataset) -> SignalEnsemble:
    """Remove the per-hour mean across days, then flatten to one sample per (day, hour).

    After centering, the mean over days of every (station, hour) series is
    zero, so the samples can be read as realizations of a zero-mean process.
    Samples are ordered day-major: day 1 hours 0..T-1, then day 2, and so on.
    """
    values = raw.values
    centered = values - values.mean(axis=2, keepdims=True)
    n, t, d = centered.shape
    # ``centered`` is ours alone, and so is any view of it the reshape returns.
    samples = centered.transpose(2, 1, 0).reshape(d * t, n)
    return SignalEnsemble(signals=_Taken(samples), domain=VERTEX)
