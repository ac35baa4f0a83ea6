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
from graph_deconv import empirical_covariance, spectral
from graph_deconv.covariance import _spectral_covariance
from graph_deconv.simulate import simulation_graph


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


def _simulation_laplacian():
    return laplacian(simulation_graph(32, 42)[2])


class TestScaleRelativeChecks:
    """eigendecompose judges a shift against max|lambda|: 2**k S is accepted or
    refused as S is, with eigenvalues 2**k lambda and the same modes."""

    @pytest.mark.parametrize("make", [_simulation_laplacian, lambda: _random_symmetric(40, 3)], ids=["lap", "random"])
    def test_scaled_shift_has_scaled_eigenvalues_and_the_same_modes(self, make):
        shift = make()
        basis = eigendecompose(shift)
        top = np.max(np.abs(basis.eigenvalues))
        for k in range(-40, 41):
            scale = 2.0**k
            scaled = eigendecompose(scale * shift)
            tol = 1e-12 * scale * top
            np.testing.assert_allclose(scaled.eigenvalues, scale * basis.eigenvalues, rtol=0, atol=tol)
            np.testing.assert_allclose(scaled.modes, basis.modes, rtol=0, atol=1e-12)
            rebuilt = (scaled.modes * scaled.eigenvalues) @ scaled.modes.T
            assert np.max(np.abs(rebuilt - scale * shift)) <= tol
            gram = scaled.modes.T @ scaled.modes
            assert np.max(np.abs(gram - np.eye(shift.shape[0]))) <= 1e-12

    @pytest.mark.parametrize("relative, refused", [(1e-6, True), (1e-14, False)])
    def test_asymmetry_is_judged_against_the_largest_eigenvalue(self, relative, refused):
        shift = _simulation_laplacian()
        shift[0, 1] += relative * np.max(np.abs(np.linalg.eigvalsh(shift)))
        for k in range(-40, 41):
            if refused:
                with pytest.raises(ValueError, match="not symmetric"):
                    eigendecompose(2.0**k * shift)
            else:
                eigendecompose(2.0**k * shift)

    def test_tiny_scaled_spectrum_is_distinct_and_a_zero_shift_is_not(self):
        vals = eigendecompose(np.diag([3e-20, 1e-20, 2e-20])).eigenvalues
        assert vals.tolist() == [1e-20, 2e-20, 3e-20]
        with pytest.raises(DegenerateSpectrum):
            eigendecompose(np.zeros((2, 2)))
        with pytest.raises(DegenerateSpectrum):
            eigendecompose(np.diag([1.0, 1.0 + 1e-10, 2.0]))

    def test_subnormal_spectrum_is_refused_and_a_one_vertex_zero_shift_is_not(self):
        """Below the smallest normal float64 eigh's eigenvalues lose relative
        precision (2.4e-6 of max|lambda| at 1e-318); just above it they keep it."""
        shift = _simulation_laplacian()
        basis = eigendecompose(shift)
        top = np.max(np.abs(basis.eigenvalues))
        tiny = np.finfo(float).tiny
        for k in (-1010, -1025):  # max|lambda| 2.8e-303 and 3.5e-308
            scaled = eigendecompose(2.0**k * shift)
            assert tiny <= 2.0**k * top
            err = np.max(np.abs(scaled.eigenvalues / 2.0**k - basis.eigenvalues))
            assert err <= 1e-14 * top
        for k in (-1026, -1060, -1070):  # max|lambda| 1.7e-308 down to 1e-321
            assert 0.0 < 2.0**k * top < tiny
            with pytest.raises(ValueError, match=r"eigenvalues are subnormal \(max \|lambda\| = .* is below 2\.2"):
                eigendecompose(2.0**k * shift)
        with pytest.raises(ValueError, match=r"max \|lambda\| = 5e-324 is below"):
            eigendecompose([[5e-324]])
        one = eigendecompose(np.zeros((1, 1)))
        assert one.eigenvalues.tolist() == [0.0] and one.modes.tolist() == [[1.0]]

    def test_eigenvalues_past_float64_are_refused(self):
        """Finite entries whose eigenvalues overflow. Two infinite eigenvalues
        leave a NaN gap, which no tolerance refuses."""
        pair = np.full((4, 4), 1e308)
        pair[:2, 2:] = pair[2:, :2] = 0.0
        for shift in (np.full((2, 2), 1e308), pair):
            with pytest.raises(ValueError, match=r"eigenvalues overflow float64 \(max \|lambda\| = inf\)"):
                eigendecompose(shift)


def oracle_eigenpairs(shift):
    """eigendecompose's ordering and sign loop, verbatim from before the pivot search was vectorised."""
    vals, vecs = np.linalg.eigh(shift)
    order = np.lexsort((vals, np.abs(vals)))
    vals = vals[order]
    vecs = vecs[:, order]

    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        nonzero = np.nonzero(np.abs(col) > spectral.SIGN_PIVOT_TOL)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            vecs[:, k] = -col
    return vals, vecs


def _random_symmetric(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a + a.T


def _decoupled_head(n, seed):
    """Only the last tenth of the vertices are coupled, so their eigenvectors
    are ~0 down to that block."""
    tail = max(1, n // 10)
    shift = np.diag(100.0 + np.arange(n))
    shift[-tail:, -tail:] = _random_symmetric(tail, seed)
    return shift


def _permuted_ties(n, seed):
    """Eigenvalues 1, -1, 2, -2, ... on a permuted diagonal: exact +-lambda ties."""
    perm = np.random.default_rng(seed).permutation(n)
    return np.diag([(-1.0) ** k * (k // 2 + 1) for k in range(n)])[perm][:, perm]


class TestVectorisedSigns:
    @pytest.mark.parametrize("n", [1, 2, 3, 96, 200])
    @pytest.mark.parametrize("make", [_random_symmetric, _decoupled_head, _permuted_ties])
    def test_bases_equal_the_sign_loop_bit_for_bit(self, n, make):
        for seed in range(3):
            shift = make(n, seed)
            basis = eigendecompose(shift)
            vals, vecs = oracle_eigenpairs(shift)
            assert basis.eigenvalues.tobytes() == vals.tobytes()
            assert basis.modes.tobytes() == vecs.tobytes()

    @pytest.mark.parametrize("n", [96, 200])
    def test_fixtures_reach_late_negative_pivots_and_ties(self, n):
        """The cases above flip columns whose pivot lies in the last rows, and order exact ties."""
        shift = _decoupled_head(n, 0)
        raw = np.linalg.eigh(shift)[1]
        head = n - n // 10
        late = np.flatnonzero((np.abs(raw[:head]) <= spectral.SIGN_PIVOT_TOL).all(axis=0))
        assert late.size == n // 10
        above = np.abs(raw[head:, late]) > spectral.SIGN_PIVOT_TOL
        pivots = raw[head:, late][above.argmax(axis=0), np.arange(late.size)]
        assert (pivots < 0).any() and (pivots > 0).any()
        vals = eigendecompose(_permuted_ties(n, 0)).eigenvalues
        assert vals[:2].tolist() == [-1.0, 1.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_named(self, bad):
        shift = np.eye(3)
        shift[1, 2] = shift[2, 1] = bad
        with pytest.raises(ValueError, match=rf"shift entry \(2, 3\) is {bad!r}, not a finite number"):
            eigendecompose(shift)

    def test_first_non_finite_entry_in_row_order_is_named_in_any_slab(self):
        shift = _random_symmetric(300, 1)
        shift[250, 3] = np.nan
        shift[3, 250] = -np.inf
        shift[299, 299] = np.inf
        with pytest.raises(ValueError, match=r"shift entry \(4, 251\) is -inf"):
            eigendecompose(shift)
        shift[3, 250] = shift[250, 3] = 0.0
        with pytest.raises(ValueError, match=r"shift entry \(300, 300\) is inf"):
            eigendecompose(shift)

    def test_diagonal_nan_is_refused_not_returned(self):
        with pytest.raises(ValueError, match=r"shift entry \(1, 1\) is nan"):
            eigendecompose([[np.nan, 0.0], [0.0, 1.0]])

    def test_overflowing_asymmetry_is_still_asymmetry(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match=r"not symmetric \(max \|S - S\^T\| = inf\)"):
                eigendecompose([[0.0, 1e308], [-1e308, 0.0]])

    def test_empty_shift_names_its_shape(self):
        with pytest.raises(ValueError, match=r"at least one vertex, got shape \(0, 0\)"):
            eigendecompose(np.zeros((0, 0)))


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
        _spectral_covariance(basis, e)
        assert e._covariance is not None
        back = pickle.loads(pickle.dumps(e))
        np.testing.assert_array_equal(back.signals, e.signals)
        assert not back.signals.flags.writeable
        assert back._covariance is None


class TestSpectralBasis:
    def test_modes_and_eigenvalues_are_read_only(self):
        basis = eigendecompose(laplacian(path_graph(4)))
        with pytest.raises(ValueError, match="read-only"):
            basis.modes[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            basis.eigenvalues[0] = 5.0


class TestCovarianceMemo:
    """``_spectral_covariance`` transforms and squares a vertex ensemble once
    per basis object, keeps the covariance and lets the transform go."""

    @pytest.fixture
    def made(self, monkeypatch):
        """Weak references to the transforms ``gft`` returns, in call order."""
        made = []

        def recorded(basis, e):
            out = gft(basis, e)
            made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(spectral, "gft", recorded)
        return made

    def setup_method(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((6, 6))
        self.basis = eigendecompose((a + a.T) / 2.0)
        self.e = SignalEnsemble(signals=rng.standard_normal((40, 6)), domain="vertex")

    def test_kept_covariance_is_reused_and_its_transform_freed(self, made):
        cov = _spectral_covariance(self.basis, self.e)
        gc.collect()
        assert len(made) == 1 and made[0]() is None
        assert _spectral_covariance(self.basis, self.e) is cov
        assert len(made) == 1 and not cov.flags.writeable
        np.testing.assert_array_equal(cov, empirical_covariance(gft(self.basis, self.e)))

    def test_other_basis_object_misses(self, made):
        first = _spectral_covariance(self.basis, self.e)
        rng = np.random.default_rng(24)
        a = rng.standard_normal((6, 6))
        for other in (
            spectral.SpectralBasis(self.basis.modes.copy(), self.basis.eigenvalues.copy()),
            eigendecompose((a + a.T) / 2.0),
        ):
            cov = _spectral_covariance(other, self.e)
            assert cov is not first
            assert np.array_equal(cov, empirical_covariance(gft(other, self.e)))
        assert len(made) == 3

    def test_spectral_ensemble_keeps_its_own_covariance_for_any_basis_of_its_width(self, made):
        spec = gft(self.basis, self.e)
        cov = _spectral_covariance(self.basis, spec)
        other = spectral.SpectralBasis(self.basis.modes.copy(), self.basis.eigenvalues.copy())
        assert _spectral_covariance(other, spec) is cov and made == []
        narrow = eigendecompose(laplacian(path_graph(5)))
        with pytest.raises(ValueError, match="signal length 6 != basis dimension 5"):
            _spectral_covariance(narrow, spec)
