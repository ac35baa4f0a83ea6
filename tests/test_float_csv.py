"""The block renderer of float tables against the row path it replaced.

``row_path`` is how a float matrix was written before: each row as
``",".join(map(repr, row)) + "\\n"``. On every matrix, ``_float_csv.blocks``
must produce the same text, byte for byte, and so must the writers that use
it.
"""

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


def test_empty_and_zero_width_tables():
    assert rendered(np.zeros((0, 4))) == ""
    assert rendered(np.zeros((3, 0))) == "\n\n\n"


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
