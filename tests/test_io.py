"""CSV and JSON formats: round trips, validation, dataset centering.

Ground truth: the 3-station x 2-hour x 2-day centering fixture is computed by
hand in the test body.
"""

import csv
import io
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from graph_deconv import (
    ChannelEstimate,
    FileFormatError,
    RawDataset,
    SignalEnsemble,
    assign_signs,
    build_observation_graph,
    build_source_graph,
    center_dataset,
    estimate_magnitudes,
    load_raw_dataset,
)
from graph_deconv import io as gio
from graph_deconv.covariance import BoundCheck
from graph_deconv.estimation import Component


class TestCoordinates:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "coords.csv"
        coords = [("s1", 0.25, 0.5), ("s2", 1.0, -2.0)]
        gio.write_coordinates(path, coords)
        back = gio.read_coordinates(path)
        assert back == [("s1", 0.25, 0.5), ("s2", 1.0, -2.0)]

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FileFormatError, match="header"):
            gio.read_coordinates(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x,y\ns1,oops,3\n")
        with pytest.raises(FileFormatError, match="not a number"):
            gio.read_coordinates(path)


class TestEdgeList:
    def test_round_trip_sorted(self, tmp_path):
        path = tmp_path / "edges.csv"
        gio.write_edge_list(path, {(3, 4), (1, 2)})
        assert gio.read_edge_list(path) == [(1, 2), (3, 4)]

    def test_bad_integer(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("i,j\n1,2.5\n")
        with pytest.raises(FileFormatError, match="integer"):
            gio.read_edge_list(path)


class TestSignals:
    def test_round_trip_preserves_values_exactly(self, tmp_path):
        rng = np.random.default_rng(70)
        e = SignalEnsemble(signals=rng.standard_normal((5, 3)), domain="vertex")
        path = tmp_path / "signals.csv"
        gio.write_signals(path, e)
        back = gio.read_signals(path)
        np.testing.assert_array_equal(back.signals, e.signals)
        assert back.domain == "vertex"

    def test_header_must_enumerate_vertices(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("v1,v3\n1.0,2.0\n")
        with pytest.raises(FileFormatError, match="header"):
            gio.read_signals(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("v1,v2\n1.0,2.0\n3.0\n")
        with pytest.raises(FileFormatError, match="columns"):
            gio.read_signals(path)


class TestCovariance:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T
        path = tmp_path / "cov.csv"
        gio.write_covariance(path, cov)
        np.testing.assert_array_equal(gio.read_covariance(path), cov)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FileFormatError, match="columns"):
            gio.read_covariance(path)


class TestResponse:
    def test_round_trip(self, tmp_path):
        gamma = np.array([1.5, -0.25, 3.0])
        path = tmp_path / "gamma.csv"
        gio.write_response(path, gamma)
        np.testing.assert_array_equal(gio.read_response(path), gamma)

    def test_indices_must_be_contiguous(self, tmp_path):
        path = tmp_path / "gamma.csv"
        path.write_text("n,gamma\n1,1.0\n3,2.0\n")
        with pytest.raises(FileFormatError, match="1..2"):
            gio.read_response(path)


class TestChannelEstimate:
    def make_estimate(self):
        return ChannelEstimate(
            gamma_m=np.array([1.5, -1.0, 0.5, 2.0]),
            support=frozenset({1, 2, 4}),
            components=(
                Component(vertices=(1, 2), anchor=1, anchor_sign=1, parents={2: 1}),
                Component(vertices=(4,), anchor=4, anchor_sign=1, parents={}),
            ),
        )

    def test_retired_sidecar_argument_is_never_opened(self, tmp_path):
        path, missing = tmp_path / "estimate.csv", tmp_path / "components.json"
        gio.write_channel_estimate(path, self.make_estimate())
        plain, with_sidecar = gio.read_channel_estimate(path), gio.read_channel_estimate(path, missing)
        np.testing.assert_array_equal(with_sidecar.gamma_m, plain.gamma_m)
        assert (with_sidecar.support, with_sidecar.components) == (plain.support, plain.components)
        assert not missing.exists()

    @pytest.mark.parametrize(
        "support, components, names",
        [
            ({1, 2, 3}, (), "vertex 1 is in the support but no component"),
            (
                {1, 2, 3},
                (((1, 2), 1), ((2, 3), 2)),
                "vertex 2 is listed in component 1 and again in component 2",
            ),
            ({1, 2, 3}, (((1, 2, 3, 4), 1),), "vertex 4 of component 1 is outside 1..3"),
            ({1, 2}, (((1, 2), 1), ((3,), 3)), "vertex 3 is in a component but not in the support"),
            ({1, 2}, (((1, 2), 3),), "vertex 3 is the anchor of component 1 but not one of its vertices"),
        ],
        ids=["support-without-components", "overlapping", "out-of-range", "off-support", "stray-anchor"],
    )
    def test_estimate_the_csv_cannot_hold_is_refused(self, tmp_path, support, components, names):
        est = ChannelEstimate(
            gamma_m=[1.0, 2.0, 3.0],
            support=frozenset(support),
            components=tuple(Component(vs, anchor, 1, {}) for vs, anchor in components),
        )
        path = tmp_path / "out" / "estimate.csv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {names}")):
            gio.write_channel_estimate(path, est)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "rows, names",
        [
            ("1,0.5,0,1,1\n2,0.7,1,0,0\n", "row 2: vertex 1 has in_support 0 but component 1"),
            ("1,0.5,1,1,1\n2,0.7,1,0,0\n", "row 3: vertex 2 has in_support 1 but component 0"),
            ("2,0.7,1,1,1\n1,0.5,1,1,1\n", "row 2: vertex 2 is in component 1, which has 2 is_anchor rows"),
            ("1,0.5,1,1,0\n2,0.7,1,1,0\n", "row 2: vertex 1 is in component 1, which has 0 is_anchor rows"),
            ("1,0.5,1,1,1\n2,0.7,0,0,1\n", "row 3: vertex 2 is an anchor outside every component"),
        ],
        ids=["component-off-support", "support-without-component", "two-anchors", "no-anchor", "stray-anchor"],
    )
    def test_contradictory_csv_columns_rejected(self, tmp_path, rows, names):
        path = tmp_path / "estimate.csv"
        path.write_text("n,gamma_m,in_support,component,is_anchor\n" + rows)
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: {names}")):
            gio.read_channel_estimate(path)

    def test_unsorted_component_is_refused(self, tmp_path):
        est = ChannelEstimate(
            gamma_m=[1.0, 2.0, 3.0],
            support=frozenset({1, 2, 3}),
            components=(Component((3, 1, 2), 3, -1, {}),),
        )
        path = tmp_path / "out" / "estimate.csv"
        names = "vertex 1 follows vertex 3 in component 1, whose vertices must ascend"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {names}")):
            gio.write_channel_estimate(path, est)
        assert not (tmp_path / "out").exists()

    def negative_anchor_estimate(self, anchor_magnitude):
        cov_x = np.array([[1.0, 0.5, 0.4], [0.5, 1.0, 0.6], [0.4, 0.6, 1.0]])
        cov_y = np.outer([1.5, -0.9, 1.1], [1.5, -0.9, 1.1]) * cov_x
        source = build_source_graph(cov_x, 0.01)
        obs = build_observation_graph(cov_y, source, 0.001)
        mags = estimate_magnitudes(cov_x, cov_y, source)
        mags[0] = anchor_magnitude
        return assign_signs(mags, obs, cov_x, cov_y, anchor_signs=[-1])

    def test_negative_anchor_reads_back_equal(self, tmp_path):
        est = self.negative_anchor_estimate(1.5)
        path = tmp_path / "estimate.csv"
        gio.write_channel_estimate(path, est)
        back = gio.read_channel_estimate(path)
        np.testing.assert_array_equal(back.gamma_m, est.gamma_m)
        assert back.support == est.support
        assert back.components == tuple(replace(c, parents={}) for c in est.components)
        assert back.components[0].anchor_sign == -1

    def test_negative_sign_on_a_zero_anchor_is_refused(self, tmp_path):
        """-1 times a zero magnitude is -0.0, which ``sign_of`` reads as +1."""
        est = self.negative_anchor_estimate(0.0)
        path = tmp_path / "out" / "estimate.csv"
        names = "vertex 1 anchors component 1 with sign -1, but its response -0.0 has sign +1"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {names}")):
            gio.write_channel_estimate(path, est)
        assert not (tmp_path / "out").exists()

    def test_csv_only_keeps_membership_and_anchors(self, tmp_path):
        est = self.make_estimate()
        csv_path = tmp_path / "estimate.csv"
        gio.write_channel_estimate(csv_path, est)
        back = gio.read_channel_estimate(csv_path)
        np.testing.assert_array_equal(back.gamma_m, est.gamma_m)
        assert back.support == est.support
        assert [c.vertices for c in back.components] == [(1, 2), (4,)]
        assert [c.anchor for c in back.components] == [1, 4]
        assert all(c.parents == {} for c in back.components)


def test_writers_make_a_missing_parent_directory(tmp_path):
    gio.write_json(tmp_path / "a" / "b" / "payload.json", {"x": 1})
    gio.write_response(tmp_path / "c" / "gamma.csv", [1.0, -2.0])
    assert gio.read_json(tmp_path / "a" / "b" / "payload.json") == {"x": 1}
    np.testing.assert_array_equal(gio.read_response(tmp_path / "c" / "gamma.csv"), [1.0, -2.0])


class TestBoundReport:
    def test_written_columns(self, tmp_path):
        path = tmp_path / "report.csv"
        gio.write_bound_report(
            path,
            [BoundCheck(n=1, nprime=2, eps=0.5, empirical=0.01, bound=0.3, flag=False)],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "n,nprime,eps,empirical,bound,flag"
        assert lines[1] == "1,2,0.5,0.01,0.3,0"


class TestRawDataset:
    def write_long_csv(self, path, values):
        """values has shape (stations, hours, days)."""
        n, t, d = values.shape
        lines = ["station,day,hour,value"]
        for s in range(n):
            for day in range(d):
                for hour in range(t):
                    lines.append(f"{s + 1},{day + 1},{hour},{values[s, hour, day]}")
        path.write_text("\n".join(lines) + "\n")

    def test_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(72)
        values = rng.standard_normal((3, 4, 2))
        path = tmp_path / "temps.csv"
        self.write_long_csv(path, values)
        raw = load_raw_dataset(path)
        assert raw.n_stations == 3 and raw.n_hours == 4 and raw.n_days == 2
        np.testing.assert_allclose(raw.values, values)

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "temps.csv"
        path.write_text("station,day,hour,value\n1,1,0,1.0\n1,2,0,2.0\n2,1,0,3.0\n")
        with pytest.raises(FileFormatError, match="incomplete"):
            load_raw_dataset(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "temps.csv"
        path.write_text("station,day,hour,value\n1,1,0,1.0\n1,1,0,2.0\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            load_raw_dataset(path)

    def test_missing_values_rejected(self):
        values = np.ones((2, 2, 2))
        values[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="missing"):
            RawDataset(values=values)


class TestCenterDataset:
    def test_identical_days_center_to_zero(self):
        day = np.arange(6.0).reshape(3, 2)
        values = np.stack([day, day], axis=2)
        centered = center_dataset(RawDataset(values=values))
        np.testing.assert_array_equal(centered.signals, 0.0)
        assert centered.signals.shape == (4, 3)

    def test_per_hour_day_mean_is_zero(self):
        rng = np.random.default_rng(73)
        raw = RawDataset(values=rng.standard_normal((5, 24, 31)))
        centered = center_dataset(raw)
        samples = centered.signals.reshape(31, 24, 5)
        np.testing.assert_allclose(samples.mean(axis=0), 0.0, atol=1e-12)

    def test_hand_computed_fixture(self):
        """3 stations x 2 hours x 2 days; day means removed per (station, hour).

        Station 1, hour 0 has values (1, 3) across days, mean 2, so the
        centered pair is (-1, +1); the rest follow the same arithmetic.
        """
        values = np.array(
            [
                [[1.0, 3.0], [10.0, 20.0]],
                [[2.0, 2.0], [0.0, 4.0]],
                [[-1.0, 1.0], [5.0, -5.0]],
            ]
        )
        centered = center_dataset(RawDataset(values=values))
        expected = np.array(
            [
                [-1.0, 0.0, -1.0],   # day 1 hour 0: stations (1,2,3)
                [-5.0, -2.0, 5.0],   # day 1 hour 1
                [1.0, 0.0, 1.0],     # day 2 hour 0
                [5.0, 2.0, -5.0],    # day 2 hour 1
            ]
        )
        np.testing.assert_array_equal(centered.signals, expected)


def _reference_csv(header, rows) -> bytes:
    """The bytes of ``csv.writer`` with ``\\n`` line endings and floats as ``repr(float(x))``."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    if header is not None:
        w.writerow(header)
    for row in rows:
        w.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
    return buf.getvalue().encode()


class TestWriterBytes:
    """Every writer's bytes equal a csv.writer + repr(float(x)) reference, and
    a row of a numeric table is ``",".join(map(repr, row))``."""

    VALUES = [-0.0, 5e-324, 1e-05, 1e16, 0.1, 1e300, -2.5e-7, 1.0]
    INTS = [0, 2**63 - 1, -(2**63 - 1)]

    def test_every_writer_matches_the_reference(self, tmp_path):
        v, (zero, big, small) = self.VALUES, self.INTS
        matrix = np.array([v, v[::-1]])
        estimate = ChannelEstimate(
            gamma_m=np.array(v[:4]),
            support=frozenset({1, 2, 4}),
            components=(
                Component(vertices=(1, 2), anchor=1, anchor_sign=1, parents={2: 1}),
                Component(vertices=(4,), anchor=4, anchor_sign=1, parents={}),
            ),
        )
        report = [
            BoundCheck(n=1, nprime=2, eps=v[1], empirical=v[0], bound=v[2], flag=True),
            BoundCheck(n=big, nprime=small, eps=v[3], empirical=v[4], bound=v[5], flag=False),
        ]
        cases = [
            (
                gio.write_coordinates,
                [('a,"b"', np.float64(v[0]), v[1]), ("s2", v[2], 3)],
                ["id", "x", "y"],
                [['a,"b"', v[0], v[1]], ["s2", v[2], 3.0]],
            ),
            (
                gio.write_edge_list,
                {(3, 4), (1, 2), (zero, big), (small, zero)},
                ["i", "j"],
                [[small, zero], [zero, big], [1, 2], [3, 4]],
            ),
            (
                gio.write_signals,
                SignalEnsemble(signals=matrix, domain="vertex"),
                [f"v{k}" for k in range(1, len(v) + 1)],
                matrix.tolist(),
            ),
            (gio.write_covariance, np.vstack([matrix] * 4), None, [v, v[::-1]] * 4),
            (gio.write_response, v, ["n", "gamma"], [[k + 1, x] for k, x in enumerate(v)]),
            (gio.write_eigenvalues, np.array(v), ["n", "lambda"], [[k + 1, x] for k, x in enumerate(v)]),
            (
                gio.write_channel_estimate,
                estimate,
                ["n", "gamma_m", "in_support", "component", "is_anchor"],
                [[1, v[0], 1, 1, 1], [2, v[1], 1, 1, 0], [3, v[2], 0, 0, 0], [4, v[3], 1, 2, 1]],
            ),
            (
                gio.write_bound_report,
                report,
                ["n", "nprime", "eps", "empirical", "bound", "flag"],
                [[1, 2, v[1], v[0], v[2], 1], [big, small, v[3], v[4], v[5], 0]],
            ),
        ]
        for write, payload, header, rows in cases:
            path = tmp_path / f"{write.__name__}.csv"
            write(path, payload)
            assert path.read_bytes() == _reference_csv(header, rows), write.__name__
            if write is not gio.write_coordinates:  # the one table with a text column
                body = path.read_text().split("\n")[header is not None :]
                assert body == [",".join(map(repr, row)) for row in rows] + [""], write.__name__

    def test_quoted_id_and_extreme_floats_read_back(self, tmp_path):
        path = tmp_path / "coords.csv"
        coords = [('a,"b"', -0.0, 5e-324), ("c", 1e300, 0.1)]
        gio.write_coordinates(path, coords)
        back = gio.read_coordinates(path)
        assert back == coords
        assert str(back[0][1]) == "-0.0"

    def test_json_layout(self, tmp_path):
        path = tmp_path / "doc.json"
        gio.write_json(path, {"a": [1, 2.5], "b": "x"})
        assert path.read_text() == '{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": "x"\n}\n'
        assert gio.read_json(path) == {"a": [1, 2.5], "b": "x"}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_json_number_is_not_written(self, tmp_path, value):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            gio.write_json(path, {"a": [1.0, value]})
        assert not path.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_table_value_is_not_written(self, tmp_path, value):
        matrix = np.zeros((3, 3))
        matrix[2, 1] = value
        report = [BoundCheck(n=1, nprime=1, eps=0.5, empirical=0.0, bound=value, flag=False)]
        cases = [
            (gio.write_signals, SignalEnsemble(signals=matrix, domain="vertex"), "row 4, column 2"),
            (gio.write_covariance, matrix, "row 3, column 2"),
            (gio.write_response, matrix[:, 1], "row 4, column 2"),
            (gio.write_bound_report, report, "row 2, column 5"),
        ]
        for write, payload, where in cases:
            path = tmp_path / f"{write.__name__}.csv"
            with pytest.raises(ValueError) as info:
                write(path, payload)
            assert str(info.value) == f"{path}: {where}: non-finite value {value!r} cannot be written"
            assert not path.exists()

    def test_non_finite_reconstruction_writes_neither_table(self, tmp_path):
        signals = SignalEnsemble(signals=np.ones((2, 2)), domain="vertex")
        paths = tmp_path / "reconstructed.csv", tmp_path / "recon_cov.csv"
        with pytest.raises(ValueError, match="row 1, column 1: non-finite value inf"):
            gio.write_reconstruction(paths[0], signals, paths[1], np.full((2, 2), np.inf))
        assert not any(p.exists() for p in paths)
        gio.write_reconstruction(paths[0], signals, paths[1], np.eye(2))
        assert gio.read_signals(paths[0]).signals.tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert gio.read_covariance(paths[1]).tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("shape", [(2, 3), (3,)])
    def test_covariance_that_is_not_square_is_not_written(self, tmp_path, shape):
        """A 2 x 3 table used to be written and then refused by its reader; a
        1-D one left an empty file behind."""
        path = tmp_path / "cov.csv"
        with pytest.raises(ValueError) as info:
            gio.write_covariance(path, np.ones(shape))
        assert str(info.value) == f"{path}: expected a square matrix, got shape {shape}"
        assert not path.exists()

    def test_signals_that_are_not_2d_are_not_written(self, tmp_path):
        path = tmp_path / "signals.csv"
        flat = SimpleNamespace(signals=np.ones(3), n_vertices=3)
        with pytest.raises(ValueError) as info:
            gio.write_signals(path, flat)
        assert str(info.value) == f"{path}: expected a 2-D table, got shape (3,)"
        assert not path.exists()

    @pytest.mark.parametrize("writer, signals, cov, refused", [
        ("signals", (3, 0), None, 0),
        ("covariance", None, (0, 0), 1),
        ("reconstruction", (3, 0), (2, 2), 0),
        ("reconstruction", (2, 2), (0, 0), 1),
    ])
    def test_tables_with_no_columns_are_not_written(self, tmp_path, writer, signals, cov, refused):
        """A 3 x 0 signal table was written as three blank lines and a 0 x 0
        covariance as an empty file; both read back as an empty file."""
        paths = tmp_path / "signals.csv", tmp_path / "cov.csv"
        e = signals and SignalEnsemble(signals=np.zeros(signals))
        with pytest.raises(ValueError) as info:
            if writer == "signals":
                gio.write_signals(paths[0], e)
            elif writer == "covariance":
                gio.write_covariance(paths[1], np.zeros(cov))
            else:
                gio.write_reconstruction(paths[0], e, paths[1], np.zeros(cov))
        shape = (signals, cov)[refused]
        assert str(info.value) == f"{paths[refused]}: expected at least one column, got shape {shape}"
        assert not any(p.exists() for p in paths)

    @pytest.mark.parametrize("signals, cov, refused", [
        (np.ones(2), np.eye(2), 0),
        (np.ones((2, 2)), np.ones((2, 3)), 1),
        (np.ones((2, 2)), np.ones(2), 1),
    ])
    def test_misshapen_reconstruction_writes_neither_table(self, tmp_path, signals, cov, refused):
        paths = tmp_path / "reconstructed.csv", tmp_path / "recon_cov.csv"
        bad = (signals, cov)[refused]
        with pytest.raises(ValueError, match=re.escape(f"{paths[refused]}: expected a ")) as info:
            gio.write_reconstruction(paths[0], SimpleNamespace(signals=signals, n_vertices=2), paths[1], cov)
        assert str(info.value).endswith(f"got shape {bad.shape}")
        assert not any(p.exists() for p in paths)

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"a": \xff}')
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: not valid JSON")):
            gio.read_json(path)


class TestTableRules:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("\nv1,v2\n\n1.0,2.0\n\n3.0,4.0\n\n")
        np.testing.assert_array_equal(gio.read_signals(path).signals, [[1.0, 2.0], [3.0, 4.0]])

    def test_python_number_grammar(self, tmp_path):
        path = tmp_path / "gamma.csv"
        path.write_text("n,gamma\n 2 ,1_000.5\n+1, -1E-3 \n")
        np.testing.assert_array_equal(gio.read_response(path), [-1e-3, 1000.5])

    @pytest.mark.parametrize(
        "text, names",
        [
            ("v1,v2\n1.0,2.0\n1.0,nan\n", "row 3, column 2: non-finite value: 'nan'"),
            ("v1,v2\n1.0,2.0\n1e400,0\n", "row 3, column 1: non-finite value: '1e400'"),
            ("v1,v2\n1.0,2.0\n\n1.0,x\n", "row 3, column 2: not a number: 'x'"),
            ("v1,v2\n1.0,2.0\n1.0\n", "row 3 has 1 columns, expected 2"),
            ("v1,v2\n", "no data rows"),
            ("", "empty file"),
        ],
        ids=["nan", "1e400", "not-a-number", "ragged", "header-only", "empty"],
    )
    def test_errors_name_file_and_row(self, tmp_path, text, names):
        path = tmp_path / "signals.csv"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: ") + ".*" + re.escape(names)):
            gio.read_signals(path)

    def test_covariance_errors_count_rows_from_one(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("1.0,2.0\n3.0,inf\n")
        with pytest.raises(FileFormatError, match="row 2, column 2: non-finite"):
            gio.read_covariance(path)

    @pytest.mark.parametrize(
        "token", ["9" * 400, "1" + "0" * 29, "-9223372036854775809"],
        ids=["400-digit", "30-digit", "below-int64"],
    )
    def test_integers_beyond_int64_rejected_by_every_reader(self, tmp_path, token):
        files = {
            gio.read_edge_list: f"i,j\n1,2\n{token},3\n",
            gio.read_response: f"n,gamma\n1,0.5\n{token},0.5\n",
            gio.read_channel_estimate: f"n,gamma_m,in_support,component,is_anchor\n1,0.5,1,1,1\n2,0.5,1,{token},0\n",
            load_raw_dataset: f"station,day,hour,value\n1,1,0,1.0\n1,1,{token},1.0\n",
        }
        for read, text in files.items():
            path = tmp_path / "table.csv"
            path.write_text(text)
            with pytest.raises(FileFormatError, match="row 3, column .*: not an int64 integer"):
                read(path)

    def test_int64_limits_read(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("i,j\n9223372036854775807,-9223372036854775808\n")
        assert gio.read_edge_list(path) == [(2**63 - 1, -(2**63))]

    def test_header_only_edge_list_is_empty(self, tmp_path):
        path = tmp_path / "edges.csv"
        gio.write_edge_list(path, [])
        assert gio.read_edge_list(path) == []

    def test_duplicated_estimate_row_rejected(self, tmp_path):
        path = tmp_path / "estimate.csv"
        path.write_text("n,gamma_m,in_support,component,is_anchor\n1,0.5,1,1,1\n1,0.5,1,1,1\n")
        with pytest.raises(FileFormatError, match="indices must be exactly 1..2"):
            gio.read_channel_estimate(path)

    def test_raw_dataset_rows_in_any_order(self, tmp_path):
        path = tmp_path / "temps.csv"
        path.write_text("station,day,hour,value\n2,1,0,4.0\n1,2,0,2.0\n2,2,0,3.0\n1,1,0,1.0\n")
        raw = load_raw_dataset(path)
        np.testing.assert_array_equal(raw.values, [[[1.0, 2.0]], [[4.0, 3.0]]])

    def test_raw_dataset_index_below_range_rejected(self, tmp_path):
        path = tmp_path / "temps.csv"
        path.write_text("station,day,hour,value\n1,1,0,1.0\n1,1,-1,2.0\n")
        with pytest.raises(FileFormatError, match=re.escape("out of range in row (1, 1, -1)")):
            load_raw_dataset(path)

    def test_raw_dataset_far_index_is_incomplete_not_allocated(self, tmp_path):
        path = tmp_path / "temps.csv"
        path.write_text("station,day,hour,value\n1,1,0,1.0\n1,1,9223372036854775806,2.0\n")
        with pytest.raises(FileFormatError, match="incomplete grid"):
            load_raw_dataset(path)
