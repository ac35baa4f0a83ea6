"""File formats: CSV readers and writers, dataset ingestion, and centering.

All vertex indices in files are 1-based. Formats:

* coordinates: header ``id,x,y``, one station per row
* edge list: header ``i,j``, one edge per row
* signals: header ``v1,...,vN``, one sample per row
* covariance: headerless N x N matrix
* frequency response: header ``n,gamma``
* channel estimate: header ``n,gamma_m,in_support,component,is_anchor`` plus a
  JSON sidecar with anchors and spanning-tree parent maps
* bound report: header ``n,nprime,eps,empirical,bound,flag``
* raw station dataset: header ``station,day,hour,value`` covering a complete
  station x day x hour grid
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .covariance import BoundCheck
from .errors import FileFormatError
from .estimation import ChannelEstimate, Component
from .spectral import VERTEX, SignalEnsemble


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_rows(path, expected_header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise FileFormatError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if header != expected_header:
        raise FileFormatError(f"{path}: expected header {expected_header}, got {header}")
    return rows[1:]


def _to_float(path, token: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise FileFormatError(f"{path}: not a number: {token!r}") from exc
    if not np.isfinite(value):
        raise FileFormatError(f"{path}: non-finite value {token!r}")
    return value


def _to_int(path, token: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise FileFormatError(f"{path}: not an integer: {token!r}") from exc


def read_coordinates(path) -> list[tuple[str, float, float]]:
    rows = _read_rows(path, ["id", "x", "y"])
    out = []
    for row in rows:
        if len(row) != 3:
            raise FileFormatError(f"{path}: expected 3 columns, got {row}")
        out.append((row[0].strip(), _to_float(path, row[1]), _to_float(path, row[2])))
    if not out:
        raise FileFormatError(f"{path}: no coordinate rows")
    return out


def write_coordinates(path, coords) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "x", "y"])
        for cid, x, y in coords:
            w.writerow([cid, _fmt(x), _fmt(y)])


def read_edge_list(path) -> list[tuple[int, int]]:
    rows = _read_rows(path, ["i", "j"])
    edges = []
    for row in rows:
        if len(row) != 2:
            raise FileFormatError(f"{path}: expected 2 columns, got {row}")
        edges.append((_to_int(path, row[0]), _to_int(path, row[1])))
    return edges


def write_edge_list(path, edges) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["i", "j"])
        for i, j in sorted(edges):
            w.writerow([i, j])


def read_signals(path, domain: str = VERTEX) -> SignalEnsemble:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise FileFormatError(f"{path}: need a header and at least one sample row")
    header = [c.strip() for c in rows[0]]
    n = len(header)
    if header != [f"v{k}" for k in range(1, n + 1)]:
        raise FileFormatError(f"{path}: expected header v1..v{n}, got {header}")
    data = np.empty((len(rows) - 1, n))
    for r, row in enumerate(rows[1:]):
        if len(row) != n:
            raise FileFormatError(f"{path}: row {r + 2} has {len(row)} columns, expected {n}")
        data[r] = [_to_float(path, tok) for tok in row]
    return SignalEnsemble(signals=data, domain=domain)


def write_signals(path, e: SignalEnsemble) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"v{k}" for k in range(1, e.n_vertices + 1)])
        for row in e.signals:
            w.writerow([_fmt(x) for x in row])


def read_covariance(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise FileFormatError(f"{path}: empty file")
    n = len(rows)
    cov = np.empty((n, n))
    for r, row in enumerate(rows):
        if len(row) != n:
            raise FileFormatError(f"{path}: row {r + 1} has {len(row)} columns, expected {n}")
        cov[r] = [_to_float(path, tok) for tok in row]
    return cov


def write_covariance(path, cov: np.ndarray) -> None:
    cov = np.asarray(cov, dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        for row in cov:
            w.writerow([_fmt(x) for x in row])


def read_response(path) -> np.ndarray:
    rows = _read_rows(path, ["n", "gamma"])
    values = {}
    for row in rows:
        if len(row) != 2:
            raise FileFormatError(f"{path}: expected 2 columns, got {row}")
        values[_to_int(path, row[0])] = _to_float(path, row[1])
    n = len(values)
    if sorted(values) != list(range(1, n + 1)):
        raise FileFormatError(f"{path}: indices must be exactly 1..{n}")
    return np.array([values[k] for k in range(1, n + 1)])


def write_response(path, gamma) -> None:
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "gamma"])
        for k, value in enumerate(gamma, start=1):
            w.writerow([k, _fmt(value)])


def write_channel_estimate(csv_path, estimate: ChannelEstimate, json_path=None) -> None:
    comp_index = {}
    anchors = set()
    for k, comp in enumerate(estimate.components, start=1):
        anchors.add(comp.anchor)
        for v in comp.vertices:
            comp_index[v] = k
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "gamma_m", "in_support", "component", "is_anchor"])
        for n in range(1, estimate.n_vertices + 1):
            w.writerow(
                [
                    n,
                    _fmt(estimate.gamma_m[n - 1]),
                    int(n in estimate.support),
                    comp_index.get(n, 0),
                    int(n in anchors),
                ]
            )
    if json_path is not None:
        payload = {
            "n_vertices": estimate.n_vertices,
            "support": sorted(estimate.support),
            "components": [
                {
                    "vertices": list(comp.vertices),
                    "anchor": comp.anchor,
                    "anchor_sign": comp.anchor_sign,
                    "parents": {str(child): parent for child, parent in sorted(comp.parents.items())},
                }
                for comp in estimate.components
            ],
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def read_channel_estimate(csv_path, json_path=None) -> ChannelEstimate:
    """Rebuild an estimate from its CSV, with full trees when the JSON is given.

    Without the sidecar the component membership and anchors still come back
    from the CSV columns, but the spanning-tree parent maps are empty. A
    sidecar that does not fit the CSV raises ``FileFormatError``: a vertex
    outside 1..N or in two components, an anchor or a parent link outside its
    component, an anchor sign other than +-1, an ``n_vertices`` other than
    the CSV's row count, or components, membership or anchors other than the
    CSV's ``in_support``, ``component`` and ``is_anchor`` columns give.
    """
    rows = _read_rows(csv_path, ["n", "gamma_m", "in_support", "component", "is_anchor"])
    entries = {}
    for row in rows:
        if len(row) != 5:
            raise FileFormatError(f"{csv_path}: expected 5 columns, got {row}")
        entries[_to_int(csv_path, row[0])] = (
            _to_float(csv_path, row[1]),
            _to_int(csv_path, row[2]),
            _to_int(csv_path, row[3]),
            _to_int(csv_path, row[4]),
        )
    n = len(entries)
    if sorted(entries) != list(range(1, n + 1)):
        raise FileFormatError(f"{csv_path}: indices must be exactly 1..{n}")
    gamma = np.array([entries[k][0] for k in range(1, n + 1)])
    support = frozenset(k for k in range(1, n + 1) if entries[k][1])

    if json_path is not None:
        with open(json_path) as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise FileFormatError(f"{json_path}: not valid JSON: {exc}") from exc
        try:
            declared = int(payload.get("n_vertices", n))
            components = tuple(
                Component(
                    vertices=tuple(int(v) for v in comp["vertices"]),
                    anchor=int(comp["anchor"]),
                    anchor_sign=int(comp["anchor_sign"]),
                    parents={int(c): int(p) for c, p in comp["parents"].items()},
                )
                for comp in payload["components"]
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FileFormatError(f"{json_path}: malformed components sidecar: {exc!r}") from exc
        if declared != n:
            raise FileFormatError(f"{json_path}: n_vertices {declared} != {n} rows in {csv_path}")
        _check_components(json_path, n, components)
        _check_components_match_csv(json_path, csv_path, entries, components)
    else:
        by_comp: dict[int, list[int]] = {}
        anchor_of: dict[int, int] = {}
        for k in range(1, n + 1):
            _, _, comp_id, is_anchor = entries[k]
            if comp_id:
                by_comp.setdefault(comp_id, []).append(k)
                if is_anchor:
                    anchor_of[comp_id] = k
        components = tuple(
            Component(
                vertices=tuple(sorted(vs)),
                anchor=anchor_of.get(cid, min(vs)),
                anchor_sign=1 if gamma[anchor_of.get(cid, min(vs)) - 1] >= 0 else -1,
                parents={},
            )
            for cid, vs in sorted(by_comp.items())
        )
    return ChannelEstimate(gamma_m=gamma, support=support, components=components)


def _check_components(json_path, n: int, components: tuple[Component, ...]) -> None:
    """Reject sidecar components that are not disjoint anchored trees on vertices 1..n."""
    seen: set[int] = set()
    for k, comp in enumerate(components, start=1):
        where = f"{json_path}: component {k}"
        for v in comp.vertices:
            if not 1 <= v <= n:
                raise FileFormatError(f"{where}: vertex {v} outside 1..{n}")
            if v in seen:
                raise FileFormatError(f"{where}: vertex {v} appears in more than one place")
            seen.add(v)
        members = set(comp.vertices)
        if comp.anchor not in members:
            raise FileFormatError(f"{where}: anchor {comp.anchor} is not one of its vertices")
        if comp.anchor_sign not in (-1, 1):
            raise FileFormatError(f"{where}: anchor_sign {comp.anchor_sign} is not -1 or +1")
        for child, parent in comp.parents.items():
            if child not in members or parent not in members:
                raise FileFormatError(
                    f"{where}: parent link {child} -> {parent} leaves the component"
                )


def _check_components_match_csv(json_path, csv_path, entries: dict, components) -> None:
    """Reject sidecar components that disagree with the CSV's support, component and anchor columns.

    Their vertices together must be the rows with ``in_support`` set,
    component k must list exactly the rows whose ``component`` is k, and the
    anchors must be exactly the rows with ``is_anchor`` set.
    """
    in_support = {v for v, (_, supported, _, _) in entries.items() if supported}
    listed = {v for comp in components for v in comp.vertices}
    if listed != in_support:
        raise FileFormatError(
            f"{json_path}: components cover vertices {sorted(listed)}, "
            f"but {csv_path} has in_support rows {sorted(in_support)}"
        )
    rows_of: dict[int, set[int]] = {}
    for v, (_, _, comp_id, _) in entries.items():
        if comp_id:
            rows_of.setdefault(comp_id, set()).add(v)
    listed_of = {k: set(comp.vertices) for k, comp in enumerate(components, start=1)}
    if rows_of != listed_of:
        k = min(k for k in rows_of.keys() | listed_of.keys() if rows_of.get(k) != listed_of.get(k))
        raise FileFormatError(
            f"{json_path}: component {k} lists vertices {sorted(listed_of.get(k, ()))}, "
            f"but {csv_path} has component {k} rows {sorted(rows_of.get(k, ()))}"
        )
    anchors = sorted(comp.anchor for comp in components)
    flagged = sorted(v for v, (_, _, _, is_anchor) in entries.items() if is_anchor)
    if anchors != flagged:
        raise FileFormatError(
            f"{json_path}: anchors {anchors}, but {csv_path} has is_anchor rows {flagged}"
        )


def write_bound_report(path, report: list[BoundCheck]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "nprime", "eps", "empirical", "bound", "flag"])
        for check in report:
            w.writerow(
                [
                    check.n,
                    check.nprime,
                    _fmt(check.eps),
                    _fmt(check.empirical),
                    _fmt(check.bound),
                    int(check.flag),
                ]
            )


@dataclass(frozen=True)
class RawDataset:
    """Complete station x hour x day grid of measurements, e.g. hourly temperatures.

    ``coords`` optionally carries the station coordinates as (id, x, y) rows,
    one per station in vertex order.
    """

    values: np.ndarray
    coords: tuple | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"values must be station x hour x day, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("dataset is empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("dataset has missing or non-finite entries")
        object.__setattr__(self, "values", arr)
        if self.coords is not None:
            coords = tuple(self.coords)
            if len(coords) != arr.shape[0]:
                raise ValueError(
                    f"{len(coords)} coordinates for {arr.shape[0]} stations"
                )
            object.__setattr__(self, "coords", coords)

    @property
    def n_stations(self) -> int:
        return self.values.shape[0]

    @property
    def n_hours(self) -> int:
        return self.values.shape[1]

    @property
    def n_days(self) -> int:
        return self.values.shape[2]


def load_raw_dataset(path, coords_path=None) -> RawDataset:
    """Read a long-format CSV with columns station,day,hour,value.

    Stations and days are numbered from 1, hours from 0. The grid must be
    complete: every (station, day, hour) combination exactly once. A
    coordinates CSV can be attached via ``coords_path``.
    """
    rows = _read_rows(path, ["station", "day", "hour", "value"])
    parsed = []
    for row in rows:
        if len(row) != 4:
            raise FileFormatError(f"{path}: expected 4 columns, got {row}")
        parsed.append(
            (
                _to_int(path, row[0]),
                _to_int(path, row[1]),
                _to_int(path, row[2]),
                _to_float(path, row[3]),
            )
        )
    if not parsed:
        raise FileFormatError(f"{path}: no data rows")
    n = max(p[0] for p in parsed)
    d = max(p[1] for p in parsed)
    t = max(p[2] for p in parsed) + 1
    values = np.full((n, t, d), np.nan)
    for station, day, hour, value in parsed:
        if not (1 <= station <= n and 1 <= day <= d and 0 <= hour < t):
            raise FileFormatError(f"{path}: indices out of range in row {(station, day, hour)}")
        if not np.isnan(values[station - 1, hour, day - 1]):
            raise FileFormatError(f"{path}: duplicate entry for {(station, day, hour)}")
        values[station - 1, hour, day - 1] = value
    if np.any(np.isnan(values)):
        missing = int(np.count_nonzero(np.isnan(values)))
        raise FileFormatError(f"{path}: incomplete grid, {missing} missing entries")
    coords = tuple(read_coordinates(coords_path)) if coords_path is not None else None
    return RawDataset(values=values, coords=coords)


def center_dataset(raw: RawDataset) -> SignalEnsemble:
    """Remove the per-hour mean across days, then flatten to one sample per (day, hour).

    After centering, the mean over days of every (station, hour) series is
    zero, so the samples can be read as realizations of a zero-mean process.
    Samples are ordered day-major: day 1 hours 0..T-1, then day 2, and so on.
    """
    values = raw.values
    centered = values - values.mean(axis=2, keepdims=True)
    n, t, d = centered.shape
    return SignalEnsemble(signals=centered.transpose(2, 1, 0).reshape(d * t, n), domain=VERTEX)
