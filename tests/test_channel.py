"""Spectral channel application, operator norm, pseudo-inversion, random channels.

Ground truth:
- operator norm vs power iteration on the dense matrix U Gamma U^T
- channel application vs a dense shift multiply routed through the GFT
"""

import re

import numpy as np
import pytest

from graph_deconv import (
    NearZeroResponse,
    SignalEnsemble,
    apply_channel,
    build_radius_graph,
    eigendecompose,
    gft,
    laplacian,
    operator_norm,
    pseudo_inverse,
    random_channel,
    stationarity_residual,
)


def make_basis(n=8, seed=1, radius=0.5):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    coords = [(k, pts[k, 0], pts[k, 1]) for k in range(n)]
    g = build_radius_graph(coords, radius)
    return eigendecompose(laplacian(g))


def power_iteration_norm(matrix, iterations=20000, seed=0):
    """Largest singular value via power iteration on M^T M."""
    rng = np.random.default_rng(seed)
    mtm = matrix.T @ matrix
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        w = mtm @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(v @ mtm @ v))


class TestApplyChannel:
    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(2)
        e = SignalEnsemble(signals=rng.standard_normal((5, 8)), domain="spectral")
        out = apply_channel(np.ones(8), e)
        np.testing.assert_array_equal(out.signals, e.signals)

    def test_all_zeros_annihilates(self):
        e = SignalEnsemble(signals=np.ones((3, 4)), domain="spectral")
        out = apply_channel(np.zeros(4), e)
        np.testing.assert_array_equal(out.signals, 0.0)

    def test_eigenvalue_response_equals_dense_shift(self):
        """Applying gamma = lambda spectrally matches multiplying by S densely."""
        basis = make_basis()
        shift = basis.modes @ np.diag(basis.eigenvalues) @ basis.modes.T
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 8))
        spectral = gft(basis, SignalEnsemble(signals=x, domain="vertex"))
        ours = apply_channel(basis.eigenvalues, spectral)
        oracle = gft(basis, SignalEnsemble(signals=x @ shift.T, domain="vertex"))
        np.testing.assert_allclose(ours.signals, oracle.signals, atol=1e-10)

    def test_commutes_with_shift_multiplication(self):
        """Shift-invariance: gamma then lambda equals lambda then gamma."""
        basis = make_basis()
        rng = np.random.default_rng(4)
        gamma = rng.standard_normal(8)
        e = SignalEnsemble(signals=rng.standard_normal((3, 8)), domain="spectral")
        a = apply_channel(basis.eigenvalues, apply_channel(gamma, e))
        b = apply_channel(gamma, apply_channel(basis.eigenvalues, e))
        np.testing.assert_allclose(a.signals, b.signals, atol=1e-12)

    def test_rejects_vertex_domain(self):
        e = SignalEnsemble(signals=np.ones((1, 4)), domain="vertex")
        with pytest.raises(ValueError, match="spectral"):
            apply_channel(np.ones(4), e)

    def test_dimension_mismatch(self):
        e = SignalEnsemble(signals=np.ones((1, 4)), domain="spectral")
        with pytest.raises(ValueError, match="length"):
            apply_channel(np.ones(5), e)


class TestOperatorNorm:
    def test_hand_example(self):
        assert operator_norm([1.0, -3.0, 2.0]) == 3.0

    def test_zero_channel(self):
        assert operator_norm(np.zeros(4)) == 0.0

    def test_matches_power_iteration_on_dense_matrix(self):
        basis = make_basis()
        rng = np.random.default_rng(7)
        gamma = rng.uniform(-2.0, 2.0, size=8)
        dense = basis.modes @ np.diag(gamma) @ basis.modes.T
        assert abs(operator_norm(gamma) - power_iteration_norm(dense)) <= 1e-8

    def test_matches_dense_two_norm_up_to_n16(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 16):
            basis = eigendecompose(
                (lambda a: a + a.T)(rng.standard_normal((n, n)))
            )
            gamma = rng.uniform(-3.0, 3.0, size=n)
            dense = basis.modes @ np.diag(gamma) @ basis.modes.T
            assert abs(operator_norm(gamma) - np.linalg.norm(dense, 2)) <= 1e-8


class TestPseudoInverse:
    def test_hand_example(self):
        out = pseudo_inverse([2.0, 0.0, -4.0], {1, 3})
        np.testing.assert_allclose(out, [0.5, 0.0, -0.25])

    def test_empty_support_gives_zero_vector(self):
        out = pseudo_inverse([2.0, 1.0], set())
        np.testing.assert_array_equal(out, 0.0)

    def test_near_zero_response_rejected(self):
        with pytest.raises(NearZeroResponse, match="vertex 2"):
            pseudo_inverse([2.0, 1e-15, 1.0], {1, 2, 3})

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_floor_itself_is_refused_and_the_next_float_above_is_inverted(self, sign):
        """|gamma| <= 1e-12 is refused, so a response of exactly 1e-12 is."""
        with pytest.raises(NearZeroResponse, match="vertex 2 "):
            pseudo_inverse([2.0, sign * 1e-12], {1, 2})
        above = sign * np.nextafter(1e-12, 1.0)
        np.testing.assert_array_equal(pseudo_inverse([2.0, above], {1, 2}), [0.5, 1.0 / above])

    def test_out_of_range_support(self):
        with pytest.raises(ValueError, match="out of range"):
            pseudo_inverse([1.0, 2.0], {3})

    @pytest.mark.parametrize("bad", [1.5, True, "2", 2.0, np.bool_(True)])
    def test_non_integer_support_rejected(self, bad):
        with pytest.raises(ValueError, match=f"support index {re.escape(repr(bad))} is not an integer"):
            pseudo_inverse([1.0, 2.0, 3.0], [1, bad])

    def test_numpy_integer_support_accepted(self):
        out = pseudo_inverse([2.0, 4.0], np.array([2], dtype=np.int64))
        np.testing.assert_array_equal(out, [0.0, 0.25])

    def test_matches_the_entrywise_loop(self):
        rng = np.random.default_rng(4)
        gamma = rng.uniform(-2.0, 2.0, size=50)
        support = set(rng.choice(np.arange(1, 51), size=30, replace=False).tolist())
        expected = np.zeros(50)
        for n in support:
            expected[n - 1] = 1.0 / gamma[n - 1]
        np.testing.assert_array_equal(pseudo_inverse(gamma, support), expected)

    def test_errors_name_the_lowest_offending_vertex(self):
        with pytest.raises(ValueError, match="support index 3 out of range 1..2"):
            pseudo_inverse([1.0, 2.0], [9, 3, 1, 40])
        with pytest.raises(ValueError, match=f"support index {-(2**70)} out of range"):
            pseudo_inverse([1.0, 2.0], [2**70, -(2**70)])
        with pytest.raises(NearZeroResponse, match="vertex 2 "):
            pseudo_inverse([1.0, 0.0, 1.0, 1e-13], [4, 3, 2])

    def test_inversion_identity_on_support(self):
        """apply(pinv) after apply(gamma) restores coefficients inside W."""
        rng = np.random.default_rng(9)
        gamma = rng.uniform(0.5, 2.0, size=8) * np.where(rng.random(8) < 0.5, -1, 1)
        support = {1, 2, 5, 8}
        e = SignalEnsemble(signals=rng.standard_normal((4, 8)), domain="spectral")
        filtered = apply_channel(gamma, e)
        restored = apply_channel(pseudo_inverse(gamma, support), filtered)
        cols = [n - 1 for n in support]
        np.testing.assert_allclose(
            restored.signals[:, cols], e.signals[:, cols], atol=1e-10
        )


class TestRandomChannel:
    def test_zero_amplitude_gives_unit_magnitudes(self):
        gamma = random_channel(16, 0.0, seed=5)
        np.testing.assert_allclose(np.abs(gamma), 1.0)

    def test_amplitude_bounds(self):
        gamma = random_channel(200, 0.2, seed=6)
        assert np.all(np.abs(gamma) >= 0.8)
        assert np.all(np.abs(gamma) <= 1.2)

    def test_deterministic_for_fixed_seed(self):
        np.testing.assert_array_equal(random_channel(32, 0.3, 77), random_channel(32, 0.3, 77))

    def test_both_signs_occur(self):
        gamma = random_channel(100, 0.1, seed=8)
        assert np.any(gamma > 0) and np.any(gamma < 0)

    def test_amplitude_validation(self):
        with pytest.raises(ValueError, match="amplitude"):
            random_channel(4, 1.0, seed=0)
        with pytest.raises(ValueError, match="amplitude"):
            random_channel(4, -0.1, seed=0)


class TestStationarityResidual:
    def test_identity_covariance_commutes(self):
        basis = make_basis()
        shift = basis.modes @ np.diag(basis.eigenvalues) @ basis.modes.T
        assert stationarity_residual(np.eye(8), shift) == 0.0

    def test_diagonal_spectral_covariance_is_stationary(self):
        basis = make_basis()
        shift = basis.modes @ np.diag(basis.eigenvalues) @ basis.modes.T
        psd = np.diag(np.linspace(2.0, 0.5, 8))
        cov = basis.modes @ psd @ basis.modes.T
        assert stationarity_residual(cov, shift) <= 1e-10

    def test_nonstationary_covariance_has_positive_residual(self):
        basis = make_basis()
        shift = basis.modes @ np.diag(basis.eigenvalues) @ basis.modes.T
        rng = np.random.default_rng(10)
        a = rng.standard_normal((8, 8))
        cov_spectral = a @ a.T
        cov = basis.modes @ cov_spectral @ basis.modes.T
        assert stationarity_residual(cov, shift) > 1e-3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            stationarity_residual(np.eye(3), np.eye(4))
