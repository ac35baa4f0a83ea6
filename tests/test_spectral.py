"""Graph construction, Laplacian, eigendecomposition, and GFT round trips.

Ground truth:
- path/star/single-edge Laplacians and spectra computed by hand
- radius graph checked against a brute-force all-pairs distance loop
- GFT checked through orthogonality identities (round trip, Parseval)
"""

import gc
import math
import pickle
import weakref

import numpy as np
import pytest

from graph_deconv import (
    DegenerateSpectrum,
    Graph,
    SignalEnsemble,
    build_radius_graph,
    eigendecompose,
    gft,
    igft,
    laplacian,
)
from graph_deconv import spectral
from graph_deconv.spectral import _as_spectral


def path_graph(n):
    return Graph(n_vertices=n, edges=frozenset((k, k + 1) for k in range(1, n)))


class TestGraph:
    def test_normalizes_edge_orientation(self):
        g = Graph(n_vertices=3, edges=frozenset({(3, 1), (2, 3)}))
        assert g.edges == frozenset({(1, 3), (2, 3)})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph(n_vertices=3, edges=frozenset({(2, 2)}))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(n_vertices=3, edges=frozenset({(1, 4)}))

    def test_connectivity(self):
        assert path_graph(4).connected
        split = Graph(n_vertices=4, edges=frozenset({(1, 2), (3, 4)}))
        assert not split.connected


class TestRadiusGraph:
    def test_three_collinear_points(self):
        """Distances 1, 1, 2 with radius 1.5 keep only consecutive pairs."""
        coords = [("a", 0.0, 0.0), ("b", 1.0, 0.0), ("c", 2.0, 0.0)]
        g = build_radius_graph(coords, 1.5)
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_radius_below_minimum_distance_gives_empty_graph(self):
        coords = [("a", 0.0, 0.0), ("b", 1.0, 0.0), ("c", 2.0, 5.0)]
        g = build_radius_graph(coords, 0.5)
        assert g.edges == frozenset()

    def test_matches_brute_force_distances(self):
        """32 random points vs an explicit all-pairs distance loop."""
        rng = np.random.default_rng(42)
        pts = rng.random((32, 2))
        coords = [(k, pts[k, 0], pts[k, 1]) for k in range(32)]
        g = build_radius_graph(coords, 0.35)
        expected = set()
        for i in range(32):
            for j in range(i + 1, 32):
                if math.dist(pts[i], pts[j]) <= 0.35:
                    expected.add((i + 1, j + 1))
        assert g.edges == frozenset(expected)

    def test_duplicate_ids_rejected(self):
        coords = [("a", 0.0, 0.0), ("a", 1.0, 0.0)]
        with pytest.raises(ValueError, match="duplicate"):
            build_radius_graph(coords, 1.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_radius_graph([("a", 0.0, 0.0)], 1.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            build_radius_graph([("a", 0.0, 0.0), ("b", 1.0, 0.0)], 0.0)


class TestLaplacian:
    def test_path_on_three_vertices(self):
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        np.testing.assert_array_equal(laplacian(path_graph(3)), expected)

    def test_single_edge(self):
        g = Graph(n_vertices=2, edges=frozenset({(1, 2)}))
        np.testing.assert_array_equal(laplacian(g), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_row_sums_are_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(2, 12))
            edges = {
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < 0.4
            }
            lap = laplacian(Graph(n_vertices=n, edges=frozenset(edges)))
            assert np.max(np.abs(lap @ np.ones(n))) <= 1e-12


class TestEigendecompose:
    def test_single_edge_by_hand(self):
        """2x2 Laplacian: eigenvalues (0, 2), first mode constant and positive."""
        g = Graph(n_vertices=2, edges=frozenset({(1, 2)}))
        basis = eigendecompose(laplacian(g))
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(basis.modes[:, 0], [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_star_spectrum_is_degenerate(self):
        """Star on 4 vertices has eigenvalues (0, 1, 1, 4): a repeated pair."""
        star = Graph(n_vertices=4, edges=frozenset({(1, 2), (1, 3), (1, 4)}))
        lap = laplacian(star)
        roots = np.sort(np.real(np.roots(np.poly(lap))))
        np.testing.assert_allclose(roots, [0.0, 1.0, 1.0, 4.0], atol=1e-8)
        with pytest.raises(DegenerateSpectrum):
            eigendecompose(lap)

    def test_path_three_spectrum(self):
        """Characteristic polynomial lambda(lambda-1)(lambda-3) gives (0, 1, 3)."""
        basis = eigendecompose(laplacian(path_graph(3)))
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 1.0, 3.0], atol=1e-10)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_magnitude_tie_orders_negative_first(self):
        basis = eigendecompose(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(basis.eigenvalues, [-1.0, 1.0])

    def test_ordering_by_magnitude(self):
        basis = eigendecompose(np.diag([-3.0, 0.5, 2.0, -1.0]))
        np.testing.assert_allclose(basis.eigenvalues, [0.5, -1.0, 2.0, -3.0])

    def test_sign_convention_first_nonzero_entry_positive(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        basis = eigendecompose(a + a.T)
        for k in range(6):
            col = basis.modes[:, k]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0

    def test_orthogonality_and_reconstruction(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            a = rng.standard_normal((9, 9))
            shift = a + a.T
            basis = eigendecompose(shift)
            gram = basis.modes.T @ basis.modes
            assert np.max(np.abs(gram - np.eye(9))) <= 1e-10
            rebuilt = basis.modes @ np.diag(basis.eigenvalues) @ basis.modes.T
            assert np.max(np.abs(rebuilt - shift)) <= 1e-8


class TestFourierTransforms:
    def setup_method(self):
        rng = np.random.default_rng(17)
        pts = rng.random((10, 2))
        coords = [(k, pts[k, 0], pts[k, 1]) for k in range(10)]
        self.basis = eigendecompose(laplacian(build_radius_graph(coords, 0.6)))

    def test_constant_signal_is_pure_zero_frequency(self):
        """On a connected graph the first Laplacian mode is constant."""
        rng = np.random.default_rng(1)
        pts = rng.random((8, 2))
        coords = [(k, pts[k, 0], pts[k, 1]) for k in range(8)]
        g = build_radius_graph(coords, 0.5)
        assert g.connected
        basis = eigendecompose(laplacian(g))
        spec = gft(basis, SignalEnsemble(signals=np.ones((1, 8)), domain="vertex"))
        assert abs(spec.signals[0, 0]) > 1.0
        assert np.max(np.abs(spec.signals[0, 1:])) <= 1e-10

    def test_zero_signal(self):
        spec = gft(self.basis, SignalEnsemble(signals=np.zeros((3, 10)), domain="vertex"))
        np.testing.assert_array_equal(spec.signals, 0.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        e = SignalEnsemble(signals=rng.standard_normal((20, 10)), domain="vertex")
        back = igft(self.basis, gft(self.basis, e))
        assert np.max(np.abs(back.signals - e.signals)) <= 1e-10
        spec = SignalEnsemble(signals=rng.standard_normal((20, 10)), domain="spectral")
        forth = gft(self.basis, igft(self.basis, spec))
        assert np.max(np.abs(forth.signals - spec.signals)) <= 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(6)
        e = SignalEnsemble(signals=rng.standard_normal((7, 10)), domain="vertex")
        spec = gft(self.basis, e)
        for m in range(7):
            assert abs(
                np.linalg.norm(e.signals[m]) - np.linalg.norm(spec.signals[m])
            ) <= 1e-10

    def test_spectral_unit_vector_maps_to_mode(self):
        unit = np.zeros((1, 10))
        unit[0, 3] = 1.0
        back = igft(self.basis, SignalEnsemble(signals=unit, domain="spectral"))
        np.testing.assert_allclose(back.signals[0], self.basis.modes[:, 3], atol=1e-12)

    def test_domain_tags_enforced(self):
        e = SignalEnsemble(signals=np.ones((1, 10)), domain="spectral")
        with pytest.raises(ValueError, match="vertex"):
            gft(self.basis, e)
        v = SignalEnsemble(signals=np.ones((1, 10)), domain="vertex")
        with pytest.raises(ValueError, match="spectral"):
            igft(self.basis, v)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            gft(self.basis, SignalEnsemble(signals=np.ones((2, 4)), domain="vertex"))


class TestSignalEnsemble:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SignalEnsemble(signals=np.empty((0, 3)), domain="vertex")

    def test_rejects_unknown_domain(self):
        with pytest.raises(ValueError, match="domain"):
            SignalEnsemble(signals=np.ones((1, 3)), domain="fourier")

    def test_promotes_single_vector(self):
        e = SignalEnsemble(signals=np.array([1.0, 2.0, 3.0]), domain="vertex")
        assert e.signals.shape == (1, 3)

    def test_signals_are_read_only(self):
        e = SignalEnsemble(signals=np.ones((2, 3)), domain="vertex")
        with pytest.raises(ValueError, match="read-only"):
            e.signals[0, 0] = 5.0

    def test_copies_an_owned_array(self):
        a = np.ones((2, 3))
        e = SignalEnsemble(signals=a, domain="vertex")
        assert not np.shares_memory(e.signals, a)
        a[0, 0] = 5.0
        assert e.signals[0, 0] == 1.0

    @pytest.mark.parametrize(
        "view", [lambda base: base[:, :3], lambda base: base.T, lambda base: base[1]]
    )
    def test_view_input_is_copied(self, view):
        base = np.arange(12.0).reshape(3, 4)
        e = SignalEnsemble(signals=view(base), domain="vertex")
        before = e.signals.copy()
        base += 100.0
        np.testing.assert_array_equal(e.signals, before)

    def test_pickle_round_trip_drops_the_memos(self):
        basis = eigendecompose(laplacian(path_graph(4)))
        e = SignalEnsemble(signals=np.arange(8.0).reshape(2, 4), domain="vertex")
        spec = _as_spectral(basis, e)
        assert e._spectral.twin() is spec
        back = pickle.loads(pickle.dumps(e))
        np.testing.assert_array_equal(back.signals, e.signals)
        assert not back.signals.flags.writeable
        assert back._spectral is None


class TestSpectralBasis:
    def test_modes_and_eigenvalues_are_read_only(self):
        basis = eigendecompose(laplacian(path_graph(4)))
        with pytest.raises(ValueError, match="read-only"):
            basis.modes[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            basis.eigenvalues[0] = 5.0


class TestGftMemo:
    """``_as_spectral`` transforms a vertex ensemble once per basis while the result is held."""

    @pytest.fixture
    def gft_calls(self, monkeypatch):
        calls = []

        def counted(basis, e):
            calls.append(e)
            return gft(basis, e)

        monkeypatch.setattr(spectral, "gft", counted)
        return calls

    def setup_method(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((6, 6))
        self.basis = eigendecompose((a + a.T) / 2.0)
        self.e = SignalEnsemble(signals=rng.standard_normal((40, 6)), domain="vertex")

    def test_held_result_is_reused(self, gft_calls):
        first = _as_spectral(self.basis, self.e)
        assert _as_spectral(self.basis, self.e) is first
        assert len(gft_calls) == 1
        np.testing.assert_array_equal(first.signals, self.e.signals @ self.basis.modes)

    def test_released_result_is_freed_and_recomputed(self, gft_calls):
        ref = weakref.ref(_as_spectral(self.basis, self.e))
        gc.collect()
        assert ref() is None
        _as_spectral(self.basis, self.e)
        assert len(gft_calls) == 2

    def test_other_basis_object_misses(self, gft_calls):
        first = _as_spectral(self.basis, self.e)
        rng = np.random.default_rng(24)
        a = rng.standard_normal((6, 6))
        for other in (
            spectral.SpectralBasis(self.basis.modes.copy(), self.basis.eigenvalues.copy()),
            eigendecompose((a + a.T) / 2.0),
        ):
            spec = _as_spectral(other, self.e)
            assert spec is not first
            assert np.array_equal(spec.signals, self.e.signals @ other.modes)
        assert len(gft_calls) == 3
