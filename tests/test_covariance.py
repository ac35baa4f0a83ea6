"""Empirical covariances, source/observation graphs, and concentration bounds.

Ground truth:
- covariance vs naive double loops
- tail bound vs an exact-arithmetic (fractions) re-implementation
- Monte Carlo exceedance rates vs the closed-form bounds
"""

import os
from fractions import Fraction

import numpy as np
import pytest

from graph_deconv import (
    NonpositiveVariance,
    SignalEnsemble,
    SimulationConfig,
    build_observation_graph,
    build_source_graph,
    concentration_bound,
    empirical_covariance,
    validate_bound_monte_carlo,
)
from graph_deconv.simulate import synthetic_source
from graph_deconv.spectral import _Taken


def spectral(signals):
    return SignalEnsemble(signals=np.asarray(signals, dtype=float), domain="spectral")


class TestEmpiricalCovariance:
    def test_single_sample_outer_product(self):
        cov = empirical_covariance(spectral([[1.0, 2.0]]))
        np.testing.assert_array_equal(cov, [[1.0, 2.0], [2.0, 4.0]])

    def test_two_unit_samples(self):
        cov = empirical_covariance(spectral([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(cov, [[0.5, 0.0], [0.0, 0.5]])

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((7, 4))
        cov = empirical_covariance(spectral(y))
        for n in range(4):
            for np_ in range(4):
                expected = sum(y[m, n] * y[m, np_] for m in range(7)) / 7
                assert abs(cov[n, np_] - expected) <= 1e-12

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(13)
        for m in (1, 3, 20):
            cov = empirical_covariance(spectral(rng.standard_normal((m, 6))))
            assert np.array_equal(cov, cov.T)
            assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10

    @pytest.mark.parametrize("m, n", [(1, 1), (5, 3), (3, 5), (64, 64), (744, 32), (2000, 64)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_symmetrisation_changes_no_bit_of_the_product(self, m, n, layout):
        """The product numpy forms is exactly symmetric, so the covariance
        is (Y^T Y) / M bit for bit, whatever the memory layout, and equals
        its transpose bit for bit; ``empirical_covariance`` does not
        symmetrise it again, so a BLAS that broke symmetry fails here."""
        y = np.random.default_rng(m * n).normal(0.0, 3.0, (2 * m, 2 * n))
        if layout == "strided":
            e = SignalEnsemble(signals=_Taken(y[::2, ::2]), domain="spectral")
            assert m * n == 1 or not (e.signals.flags.c_contiguous or e.signals.flags.f_contiguous)
        else:
            e = spectral(np.array(y[:m, :n], order=layout))
            assert e.signals.flags[f"{layout}_CONTIGUOUS"]
        cov = empirical_covariance(e)
        assert cov.tobytes() == ((e.signals.T @ e.signals) / m).tobytes()
        assert cov.tobytes() == np.ascontiguousarray(cov.T).tobytes()


class TestSourceGraph:
    def test_diagonal_covariance_gives_empty_disconnected_graph(self):
        source = build_source_graph(np.diag([1.0, 2.0, 3.0]), 0.01)
        assert source.edges == frozenset()
        assert not source.connected
        assert list(source.degrees) == [0, 0, 0]

    def test_zero_threshold_on_positive_covariance_gives_complete_graph(self):
        cov = np.full((4, 4), 0.2) + np.diag(np.ones(4))
        source = build_source_graph(cov, 0.0)
        assert len(source.edges) == 6
        assert source.connected
        assert list(source.degrees) == [3, 3, 3, 3]

    def test_nonpositive_variance_rejected(self):
        cov = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(NonpositiveVariance, match="vertex 2"):
            build_source_graph(cov, 0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_variance_rejected(self, bad):
        """A NaN variance passes a `<= 0` test, so finiteness is checked on its own."""
        cov = np.diag([1.0, 2.0, bad])
        with pytest.raises(NonpositiveVariance, match=f"non-finite variance at vertex 3 \\({bad}\\)"):
            build_source_graph(cov, 0.01)
        source = build_source_graph(np.eye(3) + 0.5, 0.01)
        with pytest.raises(NonpositiveVariance, match="observation covariance has non-finite"):
            build_observation_graph(cov, source, 0.01)

    def test_threshold_filters_weak_pairs(self):
        cov = np.eye(3)
        cov[0, 1] = cov[1, 0] = 0.5
        cov[1, 2] = cov[2, 1] = 0.005
        source = build_source_graph(cov, 0.01)
        assert source.edges == frozenset({(1, 2)})
        assert not source.connected

    @pytest.mark.parametrize("threshold", [1.0 + 1e-12, 2.0, -0.1])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match=r"pearson_threshold must be in \[0, 1\]"):
            build_source_graph(np.eye(3), threshold)


@pytest.mark.skipif(
    "TEMPERATURE_DATASET" not in os.environ,
    reason="reference 32-station hourly temperature dataset not bundled; "
    "set TEMPERATURE_DATASET to its station,day,hour,value CSV to run",
)
def test_reference_dataset_excludes_exactly_seven_pairs():
    """On the reference 32-station hourly temperature month, the 0.01 source
    threshold on the centered data's spectral covariance excludes exactly the
    pairs (5,14), (8,17), (8,25), (8,27), (12,20), (14,15), (14,16)."""
    from graph_deconv import center_dataset, eigendecompose, gft, laplacian, load_raw_dataset
    from graph_deconv import build_radius_graph
    import json

    raw = load_raw_dataset(os.environ["TEMPERATURE_DATASET"])
    coords = json.loads(os.environ["TEMPERATURE_COORDS"])
    basis = eigendecompose(
        laplacian(build_radius_graph(coords, float(os.environ["TEMPERATURE_RADIUS"])))
    )
    cov = empirical_covariance(gft(basis, center_dataset(raw)))
    source = build_source_graph(cov, 0.01)
    all_pairs = {(i, j) for i in range(1, 33) for j in range(i + 1, 33)}
    excluded = all_pairs - source.edges
    assert excluded == {(5, 14), (8, 17), (8, 25), (8, 27), (12, 20), (14, 15), (14, 16)}


class TestObservationGraph:
    def setup_method(self):
        cov = np.full((4, 4), 0.3) + np.diag(np.ones(4))
        self.source = build_source_graph(cov, 0.0)

    def test_zero_delta_keeps_everything(self):
        cov = np.full((4, 4), 0.1) + np.diag(np.ones(4))
        obs = build_observation_graph(cov, self.source, 0.0)
        assert obs.support == frozenset({1, 2, 3, 4})
        assert obs.edges == self.source.edges
        assert obs.components == ((1, 2, 3, 4),)

    def test_delta_above_one_is_rejected(self):
        # No Pearson magnitude exceeds 1, so such a delta could only empty the graph.
        cov = np.full((4, 4), 0.1) + np.diag(np.ones(4))
        with pytest.raises(ValueError, match=r"delta must be in \[0, 1\], got 1.5"):
            build_observation_graph(cov, self.source, 1.5)
        assert build_observation_graph(cov, self.source, 1.0).edges == frozenset()

    def test_subgraph_of_source_always(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = rng.standard_normal((8, 5))
            cov_x = a @ a.T + 0.1 * np.eye(8)
            source = build_source_graph(cov_x, rng.uniform(0, 0.5))
            b = rng.standard_normal((8, 5))
            cov_y = b @ b.T + 0.1 * np.eye(8)
            obs = build_observation_graph(cov_y, source, rng.uniform(0, 0.5))
            assert obs.edges <= source.edges
            assert all(1 <= n <= 8 for n in obs.support)
            assert set().union(*obs.components, set()) == set(obs.support)

    def test_components_split_on_missing_bridge(self):
        cov_x = np.eye(4)
        cov_x[0, 1] = cov_x[1, 0] = 0.9
        cov_x[2, 3] = cov_x[3, 2] = 0.9
        cov_x[1, 2] = cov_x[2, 1] = 0.9
        source = build_source_graph(cov_x, 0.01)
        cov_y = cov_x.copy()
        cov_y[1, 2] = cov_y[2, 1] = 0.0001
        obs = build_observation_graph(cov_y, source, 0.01)
        assert obs.components == ((1, 2), (3, 4))

    def test_noisy_observation_graph_rarely_loses_edges(self):
        """At sigma = 1/2 and delta = 0.001 the observation graph keeps the
        source graph's edges, or drops at most a few, across seeds."""
        from graph_deconv import random_channel

        losses = []
        for seed in range(10):
            mixing, xhat = synthetic_source(16, 744, seed)
            cov_x = empirical_covariance(xhat)
            source = build_source_graph(cov_x, 0.01)
            gamma = random_channel(16, 0.2, seed + 1000)
            rng = np.random.default_rng(seed + 2000)
            yhat = spectral(xhat.signals * gamma + 0.5 * rng.standard_normal(xhat.signals.shape))
            obs = build_observation_graph(empirical_covariance(yhat), source, 0.001)
            losses.append(len(source.edges) - len(obs.edges))
        assert max(losses) <= 3


class TestConcentrationBound:
    def test_off_diagonal_plug_in(self):
        assert concentration_bound(1.0, 1.0, 0.0, 100, 0.1, diagonal=False) == pytest.approx(1.0)

    def test_diagonal_plug_in(self):
        assert concentration_bound(1.0, 1.0, 0.0, 100, 0.1, diagonal=True) == pytest.approx(1.0)

    def test_matches_exact_arithmetic_reimplementation(self):
        """Same formulas evaluated with fractions, no shared float path."""
        c4, h, s, m, eps = 3.0, 1.2, 0.5, 744, 0.05
        fc4, fh, fs, feps = Fraction(3), Fraction(6, 5), Fraction(1, 2), Fraction(1, 20)
        sqrt_c4 = Fraction(np.sqrt(c4))
        off = (sqrt_c4 * fh**2 + fs**2) ** 2 / (m * feps**2)
        diag = (fc4 * fh**4 + 6 * sqrt_c4 * fh**2 * fs**2 + 3 * fs**4) / (m * feps**2)
        assert concentration_bound(c4, h, s, m, eps, diagonal=False) == pytest.approx(
            float(off), rel=1e-12
        )
        assert concentration_bound(c4, h, s, m, eps, diagonal=True) == pytest.approx(
            float(diag), rel=1e-12
        )

    def test_monotonicity_grid(self):
        """Decreasing in m and eps, increasing in c4, h_norm, sigma."""
        for diagonal in (False, True):
            base = dict(c4=2.0, h_norm=1.1, sigma=0.4, m=500, eps=0.2, diagonal=diagonal)
            b0 = concentration_bound(**base)
            assert concentration_bound(**{**base, "m": 1000}) < b0
            assert concentration_bound(**{**base, "eps": 0.4}) < b0
            assert concentration_bound(**{**base, "c4": 4.0}) > b0
            assert concentration_bound(**{**base, "h_norm": 1.5}) > b0
            assert concentration_bound(**{**base, "sigma": 0.8}) > b0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            concentration_bound(1.0, 1.0, 0.0, 0, 0.1, diagonal=False)
        with pytest.raises(ValueError):
            concentration_bound(1.0, 1.0, 0.0, 10, 0.0, diagonal=False)
        with pytest.raises(ValueError):
            concentration_bound(-1.0, 1.0, 0.0, 10, 0.1, diagonal=False)


class TestBoundMonteCarlo:
    def test_huge_eps_never_exceeds(self):
        cfg = SimulationConfig(n_vertices=4, sample_count=50, noise_sigma=0.0, seed=3)
        report = validate_bound_monte_carlo(cfg, 100, probes=[(1, 1), (1, 2)], bound_targets=(1e-6,))
        for check in report:
            assert check.empirical == 0.0
            assert not check.flag

    def test_vacuous_bound_is_uninformative_and_unflagged(self):
        cfg = SimulationConfig(n_vertices=4, sample_count=10, noise_sigma=0.5, seed=4)
        report = validate_bound_monte_carlo(cfg, 100, probes=[(1, 1)], bound_targets=(5.0,))
        for check in report:
            assert check.bound >= 1.0
            assert not check.informative
            assert not check.flag

    def test_moderate_bounds_unflagged(self):
        cfg = SimulationConfig(n_vertices=8, sample_count=200, noise_sigma=0.5, seed=5)
        report = validate_bound_monte_carlo(cfg, 1000, bound_targets=(0.1, 0.5))
        assert len(report) == 4
        diag = [c for c in report if c.diagonal]
        off = [c for c in report if not c.diagonal]
        assert diag and off
        for check in report:
            assert 0.05 < check.bound < 0.9
            assert not check.flag

    def test_requires_enough_trials(self):
        cfg = SimulationConfig(n_vertices=4, sample_count=10, noise_sigma=0.1, seed=6)
        with pytest.raises(ValueError, match="100"):
            validate_bound_monte_carlo(cfg, 50)

    def test_probe_indices_validated(self):
        cfg = SimulationConfig(n_vertices=4, sample_count=10, noise_sigma=0.1, seed=6)
        with pytest.raises(ValueError, match="probe"):
            validate_bound_monte_carlo(cfg, 100, probes=[(0, 2)])


class TestNoiselessFactorization:
    def test_observation_covariance_factors_exactly(self):
        """With sigma = 0, the empirical observation covariance is the entrywise
        product gamma(n) gamma(n') times the empirical source covariance."""
        from graph_deconv import random_channel

        mixing, xhat = synthetic_source(8, 300, 21)
        gamma = random_channel(8, 0.2, 22)
        yhat = spectral(xhat.signals * gamma)
        cov_y = empirical_covariance(yhat)
        cov_x = empirical_covariance(xhat)
        expected = np.outer(gamma, gamma) * cov_x
        assert np.max(np.abs(cov_y - expected)) <= 1e-12
